(** Scenario interpreter: build the simulation, apply the event schedule, run
    to the horizon, and package everything the metrics and property layers
    need. A run is a pure function of its scenario (including the seed). *)

open Ssba_core.Types

type observation = {
  obs_node : node_id;
  obs_g : general;  (** the (logical) General whose instance fired the event *)
  obs : Ssba_core.Ss_byz_agree.observation;
  obs_rt : float;  (** engine real time at which the event fired *)
}

(** What became of a scheduled proposal, evaluated at its [at] time.
    [No_general] means the target General is Byzantine or has no correct
    node, so no protocol code ran at all. *)
type proposal_outcome =
  | Accepted
  | Refused of Ssba_core.Node.propose_error
  | No_general

type result = {
  scenario : Scenario.t;
  returns : return_info list;  (** correct-node returns, in rt order *)
  observations : observation list;
      (** chronological; empty unless [record_observations] was set *)
  correct : node_id list;
      (** ids running the correct protocol by the end of the run — the
          scenario's correct cast plus every node a [Reform] event rejoined *)
  clocks : Ssba_sim.Clock.t array;  (** per node id, Byzantine slots included *)
  nodes : (node_id * Ssba_core.Node.t) list;
      (** the correct protocol nodes, reformed rejoiners last *)
  proposal_results : (Scenario.proposal * proposal_outcome) list;
      (** in chronological ([at]) order *)
  engine_stats : Ssba_sim.Engine.stats;
  (* The eleven counts below are read from [metrics] by name when the run
     ends: [net.sent], [net.delivered], [net.dropped], [net.duplicated], the
     [net.in_flight] gauge, the [net.sent.<kind>] counters and
     [transport.<name>]. *)
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  messages_duplicated : int;  (** fault-injected second copies *)
  messages_in_flight : int;  (** scheduled but undelivered at the horizon *)
  messages_by_kind : (string * int) list;
      (** frame kinds when the scenario runs a transport (acks included) *)
  transport_retransmits : int;  (** 0 when no transport runs *)
  transport_dup_suppressed : int;
  transport_expired : int;
  transport_retries_exhausted : int;
      (** frames the transport abandoned at the retry cap — previously a
          silent give-up *)
  transport_evicted : int;
      (** unacked frames the transport overwrote because a link's send
          window was full — their reliability is abandoned. Not part of
          {!Checks.result_digest}. *)
  metrics : Ssba_sim.Metrics.t;
      (** the engine's registry: [net.*], [engine.*], [node<i>.*] *)
  trace : Ssba_sim.Trace.t;
}

(** Hook handed to a scenario driver (e.g. the {!Ssba_service} loop) before
    the engine runs: generate proposals at runtime (recorded in
    [proposal_results] like scheduled ones, [at] = engine time of the call)
    and observe every correct-node return, reformed rejoiners included. *)
type driver = {
  drv_engine : Ssba_sim.Engine.t;
  drv_params : Ssba_core.Params.t;
  drv_propose : g:int -> v:value -> proposal_outcome;
      (** [g] is a logical General id: node [g mod n], channel [g / n] *)
  drv_live : unit -> (node_id * Ssba_core.Node.t) list;
  drv_on_return : (return_info -> unit) -> unit;
}

(** Run a scenario to its horizon. [on_driver], if given, receives the
    {!driver} hook after setup and before the engine runs. With [speed] the
    run is paced against the wall clock at [speed] virtual seconds per wall
    second (live-demo mode); the result is the same as without. *)
val run : ?on_driver:(driver -> unit) -> ?speed:float -> Scenario.t -> result

(** [finish sc engine stats ~returns ~observations ~correct ~clocks ~nodes
    ~proposal_results] packages a stopped run of [sc] on [engine] as {!run}
    does: [returns] sorted by real time, [observations] and
    [proposal_results] (each collected newest first) put in chronological
    order, and the eleven counts read by name from the engine's registry.
    A caller that builds its own world (the model checker) packages it
    with this. *)
val finish :
  Scenario.t ->
  Ssba_sim.Engine.t ->
  Ssba_sim.Engine.stats ->
  returns:return_info list ->
  observations:observation list ->
  correct:node_id list ->
  clocks:Ssba_sim.Clock.t array ->
  nodes:(node_id * Ssba_core.Node.t) list ->
  proposal_results:(Scenario.proposal * proposal_outcome) list ->
  result
