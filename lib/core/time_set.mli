(** Sorted set of local-time stamps (flat float array).

    Backs Initiator-Accept's last(G,m) variable: an existential
    "was it defined at [at]?" query and a cleanup-time retention trim.
    Queries are allocation-free O(log m) binary searches; insertion keeps
    the array sorted (amortized O(1) for the common monotone-append case)
    and drops exact duplicates, which no existential reader can observe. *)

type t

val create : unit -> t
val size : t -> int
val is_empty : t -> bool
val clear : t -> unit

(** Insert a stamp, keeping the array sorted; exact duplicates are dropped,
    and so is NaN (it decays at once). *)
val add : t -> float -> unit

(** [defined_at t ~at ~expiry] is [true] iff some stamp [s] satisfies
    [s <= at] and [at -. s <= expiry]. *)
val defined_at : t -> at:float -> expiry:float -> bool

(** Keep exactly the stamps [s] with [lo <= s <= hi]. *)
val retain_range : t -> lo:float -> hi:float -> unit

(** The smallest and the largest stamp; the set must not be empty. *)
val oldest : t -> float

val newest : t -> float

(** Ascending; for tests. *)
val to_list : t -> float list
