(** Deterministic splittable pseudo-random number generator (splitmix64).

    One root seed drives the whole simulation: every component derives its own
    independent stream with {!split}, so runs are reproducible regardless of
    the order in which components consume randomness. *)

type t

(** [create seed] builds a generator from an integer seed. *)
val create : int -> t

(** [split t] returns a fresh generator statistically independent from [t];
    [t] is advanced. *)
val split : t -> t

(** [copy t] snapshots the generator state. *)
val copy : t -> t

(** [skip t k] advances [t] in O(1) to exactly where [k] single draws
    would leave it: {!bits}, {!int}, {!int_in_range}, {!float},
    {!float_in_range}, {!bool} and {!pick} each take one, whatever they
    return. Raises [Invalid_argument] if [k < 0]. *)
val skip : t -> int -> unit

(** [bits t] returns 62 fresh pseudo-random bits as a non-negative [int]. *)
val bits : t -> int

(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)
val int : t -> int -> int

(** [int_in_range t ~lo ~hi] is uniform in [\[lo, hi\]] (inclusive). *)
val int_in_range : t -> lo:int -> hi:int -> int

(** [float t bound] is uniform in [\[0, bound)]. *)
val float : t -> float -> float

(** [float_in_range t ~lo ~hi] is uniform in [\[lo, hi)]. *)
val float_in_range : t -> lo:float -> hi:float -> float

(** Fair coin. *)
val bool : t -> bool

(** Uniform element of a non-empty array. *)
val pick : t -> 'a array -> 'a

(** Uniform element of a non-empty list. *)
val pick_list : t -> 'a list -> 'a

(** Fisher–Yates shuffle (returns a fresh array). *)
val shuffle : t -> 'a array -> 'a array

(** [subset t ~k arr] is a uniform [k]-element subset of [arr]. *)
val subset : t -> k:int -> 'a array -> 'a array
