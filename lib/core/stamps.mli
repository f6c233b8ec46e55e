(** Per-sender arrival stamps in flat float segments.

    A segment is [n] consecutive slots of a [float array] starting at
    [off]: slot [off + sender] holds that sender's latest arrival, and nan
    means absent. Several segments may share one array. The caller keeps
    each segment's distinct-sender count: {!note} and {!put} return 1 when
    a slot goes from absent to present (else 0), {!prune} the number of
    slots it empties. A sender outside [\[0, n)] and a NaN stamp are
    ignored. Nothing here allocates. *)

(** Record an arrival, keeping the per-sender maximum: a replayed older
    arrival never rewinds a slot. O(1). *)
val note : float array -> off:int -> n:int -> sender:int -> at:float -> int

(** Overwrite a sender's stamp (fault injection). O(1). *)
val put : float array -> off:int -> n:int -> sender:int -> at:float -> int

(** Has this sender a stamp? O(1). *)
val mem : float array -> off:int -> n:int -> sender:int -> bool

(** Empty every slot stamped before [lo] or after [hi] (a decay at [lo]
    and a sanitize at [hi]); returns how many it emptied. One pass. *)
val prune : float array -> off:int -> n:int -> lo:float -> hi:float -> int

(** Empty the whole segment (the caller zeroes its count). *)
val clear : float array -> off:int -> n:int -> unit

(** Visit the present stamps in ascending (time, sender) order, the
    canonical order of the model checker's fingerprints. O(n) per entry. *)
val iter : float array -> off:int -> n:int -> (sender:int -> at:float -> unit) -> unit
