(** Declarative scenario descriptions.

    A scenario is a recipe for one simulation: protocol constants, clock and
    delay models, the Byzantine cast, the proposals correct Generals make and
    a schedule of environment events. It is plain data — no closures — so
    it can be compared, marshalled and rerun; {!Runner.run} builds the world
    from it deterministically from the seed. *)

open Ssba_core.Types

type event =
  | Crash of { node : node_id; at : float }
      (** mute the node's sends from real time [at] *)
  | Recover of { node : node_id; at : float }
  | Scramble of { at : float; values : value list; net_garbage : int }
      (** transient fault: corrupt all correct-node protocol state (and the
          transport's state when one runs) and put [net_garbage] forged
          messages in flight, drawn over [values] *)
  | Drop_prob of { at : float; p : float }
      (** transient loss (incoherent period); lifted by [Heal]/[Heal_drop] *)
  | Partition of { at : float; blocked : node_id list * node_id list }
      (** block messages between the two groups *)
  | Heal of { at : float }
      (** heal-all (back-compat): lift the partition {e and} the transient
          drop. Persistent faults ([Loss]/[Duplicate]/[Reorder]) are
          unaffected. *)
  | Heal_partition of { at : float }  (** lift only the partition *)
  | Heal_drop of { at : float }  (** lift only the transient drop *)
  | Loss of { at : float; p : float }
      (** persistent link loss; composes with [Drop_prob]
          (effective p = [1 - (1-transient)(1-persistent)]), survives [Heal],
          and only another [Loss] event changes it *)
  | Duplicate of { at : float; p : float }  (** persistent duplication *)
  | Reorder of { at : float; prob : float; extra : float }
      (** persistent reordering: with [prob], stretch a delivery by a uniform
          extra delay in [\[0, extra\]] *)
  | Delay_surge of { at : float; factor : float }
      (** scale every delivery delay by [factor]; factor > 1 pushes
          deliveries beyond [delta], violating the bounded-delay model of
          §2 Def. 2 until [Delay_restore] *)
  | Delay_restore of { at : float }
      (** reinstall the scenario's base delay policy *)
  | Reform of { node : node_id; at : float }
      (** a Byzantine node starts running the correct protocol from
          arbitrary state — the classic self-stabilizing rejoin. A no-op on
          nodes that are already correct (or already reformed); the node
          counts as correct for guarantees anchored [Delta_stb] after [at] *)

type proposal = { g : node_id; v : value; at : float }
(** A correct General [g] proposes [v] at real time [at]. *)

type clocks =
  | Perfect  (** all clocks read real time *)
  | Drifting of { rho : float; max_offset : float }
      (** per-node random rate in [1 ± rho] and offset in [± max_offset] *)

type t = {
  name : string;
  params : Ssba_core.Params.t;
  seed : int;
  delay : Ssba_net.Delay.t;
  clocks : clocks;
  cast : (node_id * Ssba_adversary.Catalog.t) list;
      (** the Byzantine nodes and their strategies; unlisted ids run the
          correct protocol *)
  proposals : proposal list;
  events : event list;
  horizon : float;  (** stop the engine at this real time *)
  channels : int;
      (** concurrent-invocation channels per General (paper footnote 9):
          logical General ids range over [0, n * channels); the node hosting
          logical id [g] is [g mod n] *)
  record_trace : bool;
  record_observations : bool;
      (** collect fine-grained protocol events for {!Invariants} *)
  transport : Ssba_transport.Transport.config option;
      (** run all protocol traffic (correct nodes and behaviours) through the
          reliable transport; build [params] at {!Ssba_core.Params.delta_eff}
          for the worst persistent loss the event schedule installs *)
  session_capacity : int option;
      (** override the nodes' session-table capacity ([None] keeps the
          {!Ssba_core.Node} default, [max 8 (n * channels)]); tiny values
          force eviction under session floods *)
  blackout : bool;
      (** the {!Ssba_core.Initiator_accept} re-initiation blackout knob
          (default [true]); [false] only in weakened-checker sensitivity
          runs *)
  admission : bool;
      (** admission-controlled proposals (default [false]): a full session
          table refuses a General's own proposal ([At_capacity]) instead of
          evicting the least-recently-active session *)
}

(** Ids running the correct protocol, ascending. *)
val correct_ids : t -> node_id list

(** Ids running a Byzantine behaviour, ascending. *)
val byzantine_ids : t -> node_id list

(** The real time at which an event fires. *)
val event_time : event -> float

(** Whether an event invalidates the paper's guarantees until [Delta_stb]
    later. Heals and [Delay_restore] never do; persistent link faults
    ([Loss]/[Duplicate]/[Reorder]) do exactly when [masked_link_faults] is
    false — masking them is the reliable transport's contract. *)
val disruptive_event : masked_link_faults:bool -> event -> bool

(** [disruptive_event] with the masking derived from the scenario itself
    (link faults are masked iff it runs a transport). *)
val disruptive : t -> event -> bool

(** The protocol constants a scenario over [n] nodes runs under:
    [Params.default ?f ?r_slack n], except that with a [transport] the
    cascade is built at {!Ssba_core.Params.delta_eff} of the base [delta]
    stretched by the worst [Reorder] extra in [events], at the worst [Loss]
    probability in [events]. *)
val effective_params :
  ?f:int ->
  ?r_slack:Ssba_core.Params.r_slack ->
  ?transport:Ssba_transport.Transport.config ->
  int ->
  event list ->
  Ssba_core.Params.t

(** Build a scenario with sensible defaults: random delays within the bound,
    small drift, no faults, 5 s horizon, nothing recorded. *)
val default :
  ?name:string ->
  ?seed:int ->
  ?horizon:float ->
  ?record_trace:bool ->
  ?record_observations:bool ->
  ?delay:Ssba_net.Delay.t ->
  ?clocks:clocks ->
  ?cast:(node_id * Ssba_adversary.Catalog.t) list ->
  ?proposals:proposal list ->
  ?events:event list ->
  ?transport:Ssba_transport.Transport.config ->
  ?channels:int ->
  ?session_capacity:int ->
  ?blackout:bool ->
  ?admission:bool ->
  Ssba_core.Params.t ->
  t
