(** Timestamped per-sender receive log with sliding-window queries, for
    Initiator-Accept (its one client; msgd-broadcast counts senders with
    {!Stamps}).

    Stores the most recent arrival local-time per sender for one message
    class, supporting Initiator-Accept's "[>= k] distinct senders within
    [\[tau - alpha, tau\]]" conditions and the paper's decay rules.

    Queries run on every Initiator-Accept arrival (its hot path), so the
    log is one array of entries kept sorted by (time, sender), with no
    per-sender table beside it: {!count} is O(1), {!count_in_window} and
    {!shortest_window} are allocation-free O(log m) binary searches, and
    {!note} finds a sender's entry by a linear scan of the sender column,
    O(m), where m <= n is the number of distinct senders logged. *)

type t

val create : unit -> t

(** Record an arrival; keeps the per-sender maximum, so replayed older
    messages never rewind an entry. *)
val note : t -> sender:int -> at:float -> unit

(** Number of distinct senders currently logged. *)
val count : t -> int

(** Senders whose latest arrival lies in [\[now - width, now\]]. *)
val count_in_window : t -> now:float -> width:float -> int

(** Smallest [alpha] such that at least [count] distinct senders arrived in
    [\[now - alpha, now\]], or [None] if there are fewer than [count]
    (non-future) arrivals. *)
val shortest_window : t -> now:float -> count:int -> float option

(** Drop entries that arrived before [horizon]. *)
val decay : t -> horizon:float -> unit

(** Drop entries with future timestamps (transient-fault residue). *)
val sanitize : t -> now:float -> unit

(** Iterate live entries in ascending (time, sender) order — a canonical
    order independent of arrival interleaving. The model checker's state
    fingerprints rely on this canonicity. *)
val iter_entries : t -> (sender:int -> at:float -> unit) -> unit

val clear : t -> unit
val is_empty : t -> bool

(** Fault injection only: plant an arbitrary entry. *)
val corrupt : t -> sender:int -> at:float -> unit
