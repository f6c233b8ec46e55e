(** Bounded-delay authenticated point-to-point network (paper §2, Def. 2).

    While correct, every send is delivered within the configured delay policy
    and sender identity is authentic. Faults — drops, duplicates, reordering,
    partitions, forged garbage — are driven by scenario code, either as
    transient incoherence or as a persistently faulty deployment link that
    the reliable transport ([Ssba_transport]) masks.

    Determinism: each fault concern (loss, delay, duplication, reordering)
    owns a dedicated RNG stream split off the creation RNG, and every send
    advances every stream by the same count whether or not its fault is on
    — toggling one fault knob mid-run never shifts the samples another
    concern sees.

    Fast path: a send that no fault can touch — drop and duplication
    probabilities not [> 0], no reordering, an unmuted sender, no partition
    and a disabled trace — does not draw its loss, duplication and reorder
    rolls, which could change nothing. It advances those streams in O(1)
    ({!Ssba_sim.Rng.skip}) to where the draws would leave them, then per
    destination draws the delay, asks the delay override, checks the delay
    and arms the slot, as the general loop does. Every stream, seq, counter
    and delivery is what the general loop gives. *)

type 'a t
type 'a handler = 'a Msg.t -> unit

(** Reordering fault: with probability [prob], a delivery is stretched by a
    uniform extra delay in [\[0, extra\]], letting later sends overtake it. *)
type reorder = { prob : float; extra : float }

val create :
  ?drop_prob:float ->
  ?dup_prob:float ->
  ?reorder:reorder ->
  ?kind_of:('a -> string) ->
  engine:Ssba_sim.Engine.t ->
  n:int ->
  delay:Delay.t ->
  rng:Ssba_sim.Rng.t ->
  unit ->
  'a t

(** Number of nodes. *)
val size : 'a t -> int

(** Install node [i]'s handler. Every delivery hands it the network's one
    envelope, rewritten per delivery: read it during the call, never keep
    it (see {!Msg}). *)
val set_handler : 'a t -> int -> 'a handler -> unit
val set_delay : 'a t -> Delay.t -> unit

(** Probability that a send is silently lost — transient incoherence, or a
    persistent lossy link when the transport is in the loop. *)
val set_drop_prob : 'a t -> float -> unit

val drop_prob : 'a t -> float

(** Probability that a successful send is delivered twice (the second copy
    with an independently drawn delay). *)
val set_dup_prob : 'a t -> float -> unit

val dup_prob : 'a t -> float

(** Enable/disable the reordering fault ([None] disables). *)
val set_reorder : 'a t -> reorder option -> unit

(** Block links for which the predicate holds ([None] lifts the partition). *)
val set_partition : 'a t -> (src:int -> dst:int -> bool) option -> unit

(** Mute (crash) or unmute a sender: all its sends are silently dropped.
    Raises [Invalid_argument] for a node outside [[0, n)]. *)
val set_muted : 'a t -> int -> bool -> unit

(** False for a node outside [[0, n)]. *)
val is_muted : 'a t -> int -> bool

(** Per-message adversarial delivery delay: when the callback returns
    [Some d] for a send's [src], [dst] and payload, it replaces the
    policy-drawn delay. The paper's model allows a {e faulty} sender's
    messages to be arbitrarily late (masked as part of the [f] faults);
    scenario code must only target faulty senders once the system is meant
    to be coherent.

    The callback runs in the middle of a send, once per destination, after
    the fault settings were read for the whole send: it must not send on
    the network, change its faults, mute or partition it, or switch its
    trace on. It may read, schedule on, record to and stop the engine:
    both loops call it at the same point of the same per-destination
    order. *)
val set_delay_override :
  'a t -> (src:int -> dst:int -> 'a -> float option) option -> unit

(** [send t ~src ~dst payload] delivers [payload] to [dst] after a
    policy-drawn delay, with authentic [src]. *)
val send : 'a t -> src:int -> dst:int -> 'a -> unit

(** Send to every node, including [src] itself. *)
val broadcast : 'a t -> src:int -> 'a -> unit

(** Deliver a message with a forged sender identity after [delay]
    (transient-fault injection only). *)
val inject_forged : 'a t -> claimed_src:int -> dst:int -> delay:float -> 'a -> unit

(** The network as a first-class sending surface for protocol code. *)
val link : 'a t -> 'a Link.t

(** Accounting. Every message entering the network — including forged
    injections and fault-injected duplicate copies — counts exactly once as
    sent or duplicated, and is eventually counted as exactly one of delivered
    (a handler ran) or dropped (mute, partition, random loss, or no handler
    at the destination). On any quiescent network
    [attempts = delivered + dropped + in_flight] holds, with
    [attempts = sent + duplicated]; the harness checks it after every run.
    The counts live in the engine's metrics registry, read by name:
    [net.sent], [net.delivered], [net.dropped], [net.duplicated],
    [net.reordered] (deliveries stretched by the reordering fault, no
    conservation impact), the [net.in_flight] gauge (scheduled, not yet
    delivered or dropped) and, with a [kind_of] classifier,
    [net.sent.<kind>]. *)

(** [net.delivered]. *)
val messages_delivered : 'a t -> int

(** {2 Delivery arena}

    Sends are batched: each send call arms ONE engine heap entry — a fan-out
    descriptor expanding to its per-receiver deliveries in the exact
    (at, seq) order the per-entry scheme produced. A descriptor is one key
    array of (at, seq, destination) triples; its sender and payload sit in
    columns of the network indexed by the descriptor's id. Every delivery
    writes its sender, destination and payload into the network's one
    envelope just before the handler sees it, and every descriptor fires
    through one closure. A single send or forged injection takes a 1-slot
    descriptor, a broadcast an [n]-slot one, each from its own free stack;
    only duplicated copies grow one. Descriptors are recycled when their
    last sub-event fires, so steady-state delivery allocates no descriptors
    or slots beyond the peak concurrent need; the registry tracks
    [net.pool.fanouts] / [net.pool.slots] (allocations over the network's
    life) and [net.pool.in_use]. The columns start empty and grow by
    doubling. *)

(** Delivery slots ever allocated ([net.pool.slots]): 1 per single-send
    descriptor, [n] per broadcast one, plus growth for duplicated copies. *)
val pool_slots_allocated : 'a t -> int

(** Descriptors currently sitting in the two free stacks. *)
val pool_free : 'a t -> int

(** [scramble_pool t ~payload] overwrites every free descriptor's sender,
    payload and key slots with garbage drawn from the arena's own RNG
    stream ([payload] builds a garbage payload from it) — transient-fault
    injection for the arena, on the [Session_table] safety pattern: values
    may be trashed, capacity and occupancy never. Free descriptors are
    fully overwritten on acquire, so results are unaffected; armed
    (in-flight) descriptors are not touched. *)
val scramble_pool : 'a t -> payload:(Ssba_sim.Rng.t -> 'a) -> unit
