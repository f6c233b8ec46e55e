(** Monomorphic (at, seq)-keyed event queue, the engine's hot path.

    A binary min-heap whose sifts move only unboxed scalars: a flat float
    array of times, an int array of sequence numbers and an int array of
    handles. The scheduled closures and fan-out batch descriptors sit in
    side tables indexed by handle, written when an entry is armed and reset
    when it finally pops, so the queue keeps no drained event alive. A
    push/pop cycle allocates nothing: [test_event_queue.ml] pins 0 minor
    words for pushes, their pops and a full batch cycle on a warmed queue.

    Ordering is (at, seq) lexicographic: events at equal [at] pop in
    ascending [seq] order, which is what run determinism hangs on — the
    engine assigns [seq] monotonically, so ties resolve in scheduling
    order. Fan-out batches preserve that order exactly: each sub-event
    carries the very (at, seq) key the per-entry scheme would have given it,
    and the batch entry always sits in the heap keyed at its next unfired
    sub-event. No key may be NaN. *)

type t

(** A fan-out descriptor: one heap entry expanding to [b_count] sub-events.

    Contract for {!push_batch}: slots [0 .. b_count-1] of [b_ats]/[b_seqs]
    filled, sorted ascending by (at, seq) (strict — seqs are unique),
    [b_next = 0], and [b_fire] set. The queue calls [b_fire i] once per
    sub-event [i], in sorted order interleaved with the rest of the heap
    exactly as [b_count] separate entries would have been. After the last
    sub-event fires the queue drops its reference ([b_fire] observes
    [b_next = b_count] then), so the owner may recycle the record. *)
type batch = {
  mutable b_ats : float array;
  mutable b_seqs : int array;
  mutable b_count : int;
  mutable b_next : int;
  mutable b_fire : int -> unit;
}

(** Fresh descriptor with [b_count = 0], reusable across {!push_batch}
    cycles. Key arrays start at [capacity] slots (default 8). *)
val make_batch : ?capacity:int -> unit -> batch

(** Current length of the descriptor's key arrays. *)
val batch_capacity : batch -> int

(** [ensure_batch_capacity b n] grows the key arrays to at least [n] slots,
    preserving filled prefixes. *)
val ensure_batch_capacity : batch -> int -> unit

(** [create ?capacity ()] builds an empty queue. The backing arrays grow by
    doubling. *)
val create : ?capacity:int -> unit -> t

(** Pending sub-events: plain events count 1, an armed batch counts its
    unfired sub-events. *)
val size : t -> int

(** Heap entries (a whole batch counts 1) — the sift depth driver; exposed so
    tests can assert batching actually shrinks the heap. *)
val entries : t -> int

val is_empty : t -> bool

(** [push t ~at ~seq run] schedules [run] under key (at, seq). [at] must
    not be NaN; the queue does not check ({!Engine.schedule} does). *)
val push : t -> at:float -> seq:int -> (unit -> unit) -> unit

(** [push_batch t b] arms descriptor [b] (see {!type-batch} for the fill
    contract). Raises [Invalid_argument] on an empty, in-flight, overflowing
    or unsorted descriptor, and on a NaN sub-event time. *)
val push_batch : t -> batch -> unit

(** Time key of the minimum pending sub-event. Raises [Invalid_argument]
    when empty. *)
val min_at : t -> float

(** Remove the minimum sub-event and run it: a plain event's closure, or
    [b_fire] of the batch it belongs to. Raises [Invalid_argument] when
    empty. *)
val pop_invoke : t -> unit
