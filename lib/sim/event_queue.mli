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
    order. Fan-out batches and lanes preserve that order exactly: each
    sub-event carries the very (at, seq) key the per-entry scheme would have
    given it, and the batch entry always sits in the heap keyed at its next
    unfired sub-event. No key may be NaN. *)

type t

(** A fan-out descriptor: one heap entry expanding to [b_count] sub-events.

    Sub-event [i] is the triple (at, seq, tag) in slot [i] of [b_keys], one
    [float array] for the whole descriptor: the (at, seq) key the per-entry
    scheme would have given it, and an int tag that the owner chooses (the
    network's destination, the transport's link) and reads back with
    {!key_tag} when the sub-event fires. Seq and tag are held exactly as
    floats, so both must lie in [\[0, 2^53)]. Slots are written only through
    {!set_key} and read through {!key_at}, {!key_seq} and {!key_tag}; no
    caller indexes [b_keys] by hand.

    Contract for {!push_batch}: slots [0 .. b_count-1] filled, sorted
    ascending by (at, seq) (strict — seqs are unique), [b_next = 0], and
    [b_fire] set. The queue calls [b_fire b i] once per sub-event [i], in
    sorted order interleaved with the rest of the heap exactly as [b_count]
    separate entries would have been. After the last sub-event fires the
    queue drops its reference ([b_fire] observes [b_next = b_count] then),
    so the owner may recycle the record. [b_fire] receives the descriptor
    itself, so one closure serves every descriptor of an owner, which tells
    them apart by [b_id].

    A {e lane} is a descriptor that keeps accepting sub-events while it is
    armed, for an owner whose keys arrive in ascending (at, seq) order —
    timers of one fixed delay, armed by a clock that never runs backwards.
    The heap holds one entry per lane, not one per sub-event, and the pop
    order is exactly that of one entry per sub-event. Contract for
    {!append}: a lane never goes through {!push_batch}. It is {e idle} when
    every sub-event it holds has fired ([b_next = b_count]), as a fresh or
    released descriptor is; an idle lane restarts at slot 0 and enters the
    heap as a new entry. An append to an armed lane only writes the next
    slot, and its key must come strictly after the lane's last. A full lane
    drops its fired prefix, so slot indices shift: the index [b_fire]
    receives is valid only until the next append (read its tag first), and
    the owner keeps its own FIFO beside the lane when a tag does not say
    enough (one element pushed per append, one popped per fire). [b_fire]
    may append to its own lane, also when its sub-event was the last one
    and the lane has just gone idle. *)
type batch = {
  mutable b_keys : float array;
  mutable b_count : int;
  mutable b_next : int;
  mutable b_fire : batch -> int -> unit;
  b_id : int;
}

(** Fresh descriptor with [b_count = 0], reusable across {!push_batch}
    cycles and usable as a lane. Its key array starts at [capacity] slots
    (default 8); [id] (default 0) is the owner's name for it. *)
val make_batch : ?capacity:int -> ?id:int -> unit -> batch

(** Slots the descriptor's key array holds. *)
val batch_capacity : batch -> int

(** [ensure_batch_capacity b n] grows the key array to at least [n] slots,
    preserving filled slots. *)
val ensure_batch_capacity : batch -> int -> unit

(** [set_key b i ~at ~seq ~tag] writes slot [i]: the only writer of a
    descriptor's keys. Raises [Invalid_argument] on a NaN [at] and on a
    [seq] or [tag] outside [\[0, 2^53)], before writing anything. *)
val set_key : batch -> int -> at:float -> seq:int -> tag:int -> unit

(** Time, seq and tag of slot [i]. *)
val key_at : batch -> int -> float

val key_seq : batch -> int -> int
val key_tag : batch -> int -> int

(** [sort_batch t b] sorts slots [0 .. b_count-1] of [b] by (at, seq) in
    place, as {!push_batch} wants them. Up to 16 slots, or when every time
    is equal, it is an insertion sort, linear on the seq-ordered slots a
    fan-out arms. A larger batch is first scattered stably into [b_count]
    buckets by time over its [\[min, max\]] and finished by one insertion
    pass: expected O([b_count]) for times spread over their span, as drawn
    delays are. The scatter goes through scratch space that belongs to
    [t] (one queue per world, so worlds on several domains share none),
    grown to the largest batch it has sorted; a sort that does not grow it
    allocates nothing. Keys are unique, so the result is the one (at, seq)
    order. Raises [Invalid_argument] when [b_count] exceeds the key
    array. *)
val sort_batch : t -> batch -> unit

(** [create ?capacity ()] builds an empty queue. The backing arrays grow by
    doubling. *)
val create : ?capacity:int -> unit -> t

(** Pending sub-events: plain events count 1, an armed batch or lane counts
    its unfired sub-events. *)
val size : t -> int

(** Heap entries (a whole batch or lane counts 1) — the sift depth driver;
    exposed so tests can assert batching actually shrinks the heap. *)
val entries : t -> int

val is_empty : t -> bool

(** [push t ~at ~seq run] schedules [run] under key (at, seq). [at] must
    not be NaN; the queue does not check ({!Engine.schedule} does). *)
val push : t -> at:float -> seq:int -> (unit -> unit) -> unit

(** [push_batch t b] arms descriptor [b] (see {!type-batch} for the fill
    contract). Raises [Invalid_argument] on an empty, in-flight, overflowing
    or unsorted descriptor, and on a NaN sub-event time. *)
val push_batch : t -> batch -> unit

(** [append t lane ~at ~seq ~tag] adds one sub-event to [lane] (see the
    lane contract of {!type-batch}). Raises [Invalid_argument] when [lane]
    is armed and (at, seq) does not come strictly after its last key, and
    where {!set_key} does. *)
val append : t -> batch -> at:float -> seq:int -> tag:int -> unit

(** Time key of the minimum pending sub-event. Raises [Invalid_argument]
    when empty. *)
val min_at : t -> float

(** Remove the minimum sub-event and run it: a plain event's closure, or
    [b_fire b i] of the batch [b] it belongs to. Raises [Invalid_argument] when
    empty. *)
val pop_invoke : t -> unit
