(** Seeded random scenario generation.

    Every draw comes from one {!Ssba_sim.Rng.t}, so a generated spec is a
    pure function of the generator's seed and the config. Generated specs
    always satisfy {!Spec.validate}: casts respect [f < n/3], events are
    sorted and in-horizon, and every disruption (crash, loss, partition) is
    paired with a recovery so the run re-enters the paper's coherent model
    before the horizon — the self-stabilization claim under test. *)

type config = {
  max_n : int;  (** clusters span n = 4 … [max_n] *)
  max_cast : int;  (** cap on Byzantine count (further capped by [f]) *)
  max_proposals : int;
  max_disruptions : int;  (** crash/drop/partition/scramble groups *)
  disruptions : bool;  (** allow transient environment events at all *)
  transport : Ssba_transport.Transport.config option;
      (** run every generated spec over the reliable transport *)
  max_link_faults : int;
      (** cap on persistent [Loss]/[Duplicate]/[Reorder] events; only
          generated when [transport] is set (they never heal, so without the
          transport the run would leave the paper's model permanently) *)
  chaos : bool;
      (** churn tier: replace the random proposal/event draws with a
          {!Ssba_harness.Chaos} schedule (random pattern, fixed episode
          count), so every spec is a continuous-churn run whose recovery
          times the per-interval oracle measures and bounds *)
  r_slack : Ssba_core.Params.r_slack;
      (** block R gate variant stamped on every generated spec *)
  edge_delays : bool;
      (** boundary sampling: admit the {!Spec.Edge} delay model (atoms that
          divide the 3d/4d/5d comparison boundaries exactly) and the
          {!Ssba_adversary.Catalog.Gate_edge} entry into the draw menus.
          [false] reproduces the historical RNG draw sequence bit-for-bit —
          the legacy corpus digests. *)
  service : bool;
      (** overload tier: stamp every spec with a generated
          {!Ssba_service.Workload} (open-loop arrivals with bursts,
          watermarks, bounded retry queue). Off adds no draws, so the other
          tiers' corpus digests are untouched. *)
}

val default_config : config

(** [default_config] plus a transport and persistent link faults (loss up to
    p = 0.3, duplication, reordering), transient disruptions off — every
    spec stays in the oracle's strictest class, so Validity/Termination are
    checked under permanently degraded links. *)
val lossy_config : config

(** The churn tier: [chaos] on, clusters capped at n = 7 so the repeated
    [Delta_stb]-long episodes stay cheap. *)
val chaos_config : config

(** The overload tier: [service] on — open-loop arrival bursts against the
    admission-controlled service — over a transport with persistent link
    faults, plus at most one transient churn group; no scheduled
    proposals. *)
val overload_config : config

(** Draw one spec. *)
val spec : Ssba_sim.Rng.t -> config -> Spec.t

(** The smallest horizon under which {!Oracle} verdicts for this spec are
    sound: last activity, plus the stabilization allowance when the spec has
    events, plus the termination window. Generation and horizon-shrinking
    both use this. *)
val min_horizon : Spec.t -> float
