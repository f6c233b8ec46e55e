(** Reliable transport over a persistently faulty link.

    Recovers the paper's bounded-delay channel abstraction (§2, Def. 2) on
    top of a link that stays lossy/duplicating/reordering forever:
    per-ordered-pair sequence numbers, ack-driven retransmission with
    exponential backoff and a retry cap, and a bounded receive-side dedup
    ring. All state is fixed-size, so a {!scramble} corrupts values but
    never capacity, and the corruption washes out with real traffic —
    post-[Delta_stb] properties hold with the transport in the loop.

    A payload the transport delivers over an otherwise-coherent link with
    loss rate [p] arrives within [Params.delta_eff ~delta ~p ~rto ~retries];
    it fails to arrive at all with probability [p^(retries+1)]. Instantiate
    the protocol's timeout cascade at [delta_eff] to keep it sound over the
    lossy link. *)

(** The wire format: payloads ride in [Data] frames; [Ack]s are
    fire-and-forget (lost acks are masked by retransmission). *)
type 'a frame = Data of { seq : int; payload : 'a } | Ack of { seq : int }

(** Frame classifier for [Network.create ~kind_of], given a payload
    classifier; acks are labeled ["ack"]. *)
val kind_of : ('a -> string) -> 'a frame -> string

type config = private {
  rto : float;  (** first retransmission timeout; doubles per attempt *)
  retries : int;  (** max retransmissions per frame *)
  window : int;  (** per-ordered-pair in-flight ring capacity *)
  dedup : int;  (** per-ordered-pair receive dedup ring capacity *)
}

(** [config ~rto ()] with defaults [retries = 12], [window = 64],
    [dedup = 256]: the only way to build a {!config}. Raises
    [Invalid_argument] on nonsensical inputs, a NaN or infinite [rto]
    included, and when the last backoff [rto * 2^retries] is not finite. *)
val config : ?retries:int -> ?window:int -> ?dedup:int -> rto:float -> unit -> config

type 'a t

(** [create ~engine ~net ~config ()] installs the transport's frame handler
    on every node of [net] (the transport owns the network's handler slots;
    protocol code installs payload handlers through {!link}). [kind_of]
    labels Retransmit trace events. *)
val create :
  ?kind_of:('a -> string) ->
  engine:Ssba_sim.Engine.t ->
  net:'a frame Ssba_net.Network.t ->
  config:config ->
  unit ->
  'a t

(** The transport as a sending surface for protocol code. A payload
    handler sees the underlying frame's src and dst in the transport's one
    envelope, rewritten for every delivery: read it during the call, never
    retain it (see {!Ssba_net.Msg}). *)
val link : 'a t -> 'a Ssba_net.Link.t

(** Corrupt every piece of transport state within its type (next-seq
    counters, dedup rings, pending windows) — the transient-fault model of
    Corollary 5. Deterministic in [rng]. *)
val scramble : 'a t -> rng:Ssba_sim.Rng.t -> unit

(* The transport counts into the engine's metrics registry; read the
   counters by name ([Metrics.find_counter]), as the Runner does:
   - [transport.retransmits]: frames sent again after a timeout;
   - [transport.dup_suppressed]: frames dropped by the receive dedup ring;
   - [transport.expired]: frames whose retry budget ran out unacked;
   - [transport.retries_exhausted]: the same frames, for observability only
     (never part of a result digest); each also emits a typed
     [Retries_exhausted] trace event;
   - [transport.evicted]: pending entries evicted by window overrun before
     being acked;
   - [transport.acks]: acks sent (one per data frame received, duplicates
     included). *)
