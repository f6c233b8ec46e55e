(** Serializable scenario descriptions — the fuzzer's unit of work.

    A spec names a scenario in the fuzzer's own terms: the protocol size
    ([n], [f] and the block-R gate, from which {!params} derives the
    constants) and an optional service workload, beside the
    {!Ssba_harness.Scenario} data it compiles to ({!to_scenario}). It
    round-trips through JSON ({!to_json}/{!of_json}, lossless including
    float bits), and therefore replays byte-for-byte: running the same spec
    twice yields the same {!Ssba_harness.Checks.result_digest}. *)

open Ssba_core.Types

type t = {
  name : string;
  seed : int;  (** drives every random choice of the compiled scenario *)
  n : int;
  f : int;  (** [Params.default ~f n] supplies the remaining constants *)
  delay : Ssba_net.Delay.t;
  clocks : Ssba_harness.Scenario.clocks;
  cast : (node_id * Ssba_adversary.Catalog.t) list;  (** sorted by node id *)
  proposals : Ssba_harness.Scenario.proposal list;
  events : Ssba_harness.Scenario.event list;  (** sorted by time *)
  transport : Ssba_transport.Transport.config option;
      (** when set, the compiled scenario runs the reliable transport and
          {!params} builds the timeout cascade at
          {!Ssba_core.Params.delta_eff} for the worst persistent loss and
          reordering the event schedule installs *)
  horizon : float;
  session_capacity : int option;
      (** override the nodes' session-table capacity ([None] keeps the
          {!Ssba_core.Node} default); serialized only when set *)
  blackout : bool;
      (** the re-initiation blackout knob (default [true]); serialized only
          when [false] — older replay files keep loading unchanged *)
  r_slack : Ssba_core.Params.r_slack;
      (** block R gate variant threaded into {!params}; serialized only when
          it differs from {!Ssba_core.Params.default_r_slack} *)
  service : Ssba_service.Workload.t option;
      (** the overload tier: run the recurrent-agreement service loop. The
          compiled scenario gets the workload's channel fan-out,
          admission-controlled proposals and a trace, and {!Oracle} adds the
          service checks (bounded queue, shed-only-under-pressure, eventual
          drain). Serialized only when set *)
}

(** The protocol constants the compiled scenario runs under:
    {!Ssba_harness.Scenario.effective_params} of [n], [f], [r_slack], the
    transport and the event schedule. *)
val params : t -> Ssba_core.Params.t

(** Compile to a runnable scenario (observations recorded, for the oracle's
    invariant monitor). *)
val to_scenario : t -> Ssba_harness.Scenario.t

(** Largest node id the spec mentions anywhere (cast, proposals, events,
    strategy targets); [-1] if none. Node-count shrinking checks this. *)
val max_referenced_id : t -> int

(** Structural sanity: [n > 3f], cast within the fault budget and node
    range, events sorted and inside the horizon, proposals in range, every
    delay and fault parameter in range ({!Ssba_net.Delay.valid}), and
    {!params} can be built (every derived constant finite). NaN fails
    every check. *)
val validate : t -> (unit, string) result

val to_json : t -> Ssba_sim.Json.t
val of_json : Ssba_sim.Json.t -> (t, string) result

(** Save/load one spec as pretty-stable JSON text (the replay file format).
    [save] returns [Error] with the system's reason when the file cannot be
    written; [load] returns [Error] for a spec that fails {!validate}. *)
val save : string -> t -> (unit, string) result

val load : string -> (t, string) result

val pp : Format.formatter -> t -> unit
