(** Node glue: wires the protocol state machines to the engine, clock and
    network, multiplexes per-General agreement instances, and implements the
    General-side Sending Validity Criteria [IG1]–[IG3]. *)

open Types

type t
type link = message Ssba_net.Link.t

type propose_error =
  | Too_soon  (** [IG1]: within [Delta_0] of the previous initiation *)
  | Value_too_soon  (** [IG2]: within [Delta_v] of initiating the same value *)
  | Blocked  (** [IG3]: within [Delta_reset] of a noticed failure *)
  | Busy  (** own agreement instance still active *)
  | At_capacity
      (** admission mode only: the session table is full and the proposal
          was refused rather than evicting a live session *)

val string_of_propose_error : propose_error -> string

(** Create a node over a sending surface — the raw network
    ([Ssba_net.Network.link]) or a reliable transport session
    ([Ssba_transport.Transport.link]) — and register it as the handler for
    [id]. Starts the periodic (every [d]) cleanup tick.

    [channels] (default 1) enables the paper's footnote-9 extension:
    concurrent invocations by one General are differentiated by an index.
    Logical General ids range over [0, n * channels); logical [g] is owned by
    physical node [g mod n], and the Sending Validity Criteria are enforced
    per logical General.

    [session_capacity] (default [max 8 (n * channels)]) fixes the session
    table's slot count: sessions beyond it evict the least-recently-active
    one deterministically. The default admits every logical General at once,
    so eviction only ever fires under adversarial floods.

    [blackout] (default [true]) gates the {!Initiator_accept} re-initiation
    blackout; the model checker disables it in sensitivity runs to exhibit
    the split decision the guard prevents.

    [admission] (default [false]) makes the General's own proposals
    admission-controlled: a full session table refuses them ([At_capacity],
    counted by the table as [rejected_at_capacity]) instead of evicting the
    least-recently-active session. Message receipt keeps the evicting
    path. *)
val create_on :
  ?channels:int ->
  ?session_capacity:int ->
  ?blackout:bool ->
  ?admission:bool ->
  id:node_id ->
  params:Params.t ->
  clock:Ssba_sim.Clock.t ->
  engine:Ssba_sim.Engine.t ->
  link:link ->
  unit ->
  t

val id : t -> node_id
val params : t -> Params.t
val clock : t -> Ssba_sim.Clock.t
val engine : t -> Ssba_sim.Engine.t

(** Current local-clock reading. *)
val local_time : t -> float

(** Act as the General: initiate agreement on [v] (block Q0), enforcing the
    Sending Validity Criteria and arming the [IG3] self-watchdog. [channel]
    (default 0) selects the concurrent-invocation index; the agreement runs
    under logical General id [channel * n + id]. Raises [Invalid_argument] if
    the channel is out of range. *)
val propose : ?channel:int -> t -> value -> (unit, propose_error) result

(** The per-General agreement session (found in the session table or created
    on demand, keyed (logical G, anchor)); the argument is a logical General
    id in [\[0, n * channels)] (raises [Invalid_argument] otherwise). Touches
    the session's activity time. *)
val instance : t -> general -> Ss_byz_agree.t

(** The physical node behind a logical General id ([g mod n]). *)
val physical : t -> general -> node_id

(** Number of live sessions in the table (bounded by the table capacity,
    default [max 8 (n * channels)] — the memory-bound soak tests rely on
    this; quiescent sessions are garbage-collected by the cleanup tick). *)
val instance_count : t -> int

(** The session table's lifecycle counters: capacity, live, peak live,
    evictions, collections. *)
val session_stats : t -> Session_table.stats

(** All values returned by this node's agreement instances, oldest first. *)
val returns : t -> return_info list

(** Be notified of every future return. *)
val subscribe : t -> (return_info -> unit) -> unit

(** Be notified of fine-grained protocol events (I-accepts, msgd-broadcast
    accepts, own decision broadcasts, broadcaster detections) across all of
    this node's agreement instances, tagged with the General. *)
val subscribe_observations :
  t -> (general -> Ss_byz_agree.observation -> unit) -> unit

(** Append a canonical whole-node state fingerprint: sessions (with the
    lifecycle bookkeeping that drives eviction), separation guards,
    General-side rate-limiting state and the return history — the model
    checker's visited-set encoding. The clock is not included; the checker
    appends the engine time itself. *)
val fingerprint : Buffer.t -> t -> unit

(** Transient-fault injection: corrupt every instance (plus two conjured
    ones) and the General-side bookkeeping. *)
val scramble : Ssba_sim.Rng.t -> values:value list -> t -> unit

(** A reformed node: a previously Byzantine node starts running the correct
    protocol mid-run from arbitrary state (the self-stabilizing rejoin).
    [create_on] wired to [link], then immediately {!scramble}d with [values],
    so the node's protocol and General-side state is arbitrary at the reform
    point — the paper owes guarantees only [Delta_stb] later. *)
val reform :
  ?channels:int ->
  ?session_capacity:int ->
  ?admission:bool ->
  rng:Ssba_sim.Rng.t ->
  values:value list ->
  id:node_id ->
  params:Params.t ->
  clock:Ssba_sim.Clock.t ->
  engine:Ssba_sim.Engine.t ->
  link:link ->
  unit ->
  t
