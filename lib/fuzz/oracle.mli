(** The fuzzer's verdict on one spec: run it and check every property the
    paper entitles us to under that spec's fault mix.

    Always checked: message conservation. Agreement is checked per
    {!Ssba_harness.Coherence} interval via
    {!Ssba_harness.Checks.recovery_report}: inside {e every} maximal
    coherent interval, from [Delta_stb] after the interval opens — so
    incoherent tails (unrecovered crashes, unmasked persistent link faults)
    contribute nothing, while violations in early coherent windows that a
    last-disruption-only cutoff would miss are caught. Each measured
    per-episode stabilization time must stay within [Delta_stb]
    (["recovery-time"] failures otherwise). Per accepted proposal, Validity,
    Termination and the Timeliness-1a decision-skew deadline run on
    "reliable" specs — no disruptive events at all, which includes
    transport-masked [Loss]/[Duplicate]/[Reorder] — and, under disruptions,
    on proposals whose full termination window fits inside the checked part
    of one coherent interval (§6.1 re-entitles exactly those). On calm specs
    (no events of any kind) the {!Ssba_harness.Invariants} IA/TPS monitor
    runs too. *)

type failure = { oracle : string; detail : string }

type report = {
  digest : string;  (** {!Ssba_harness.Checks.result_digest} of the run *)
  failures : failure list;  (** empty means every applicable oracle passed *)
}

type config = {
  skew_deadline_scale : float;
      (** scales the Timeliness-1a 3d decision-skew deadline; 1.0 is the
          paper's bound, smaller values deliberately weaken the oracle's
          tolerance (used to prove the fuzzer catches violations) *)
  assume_coherent : bool;
      (** pretend every link fault is masked even without a transport: run
          the full reliable-class oracles regardless of the event schedule
          (and the pre-coherence-timeline whole-run Agreement check).
          Unsound by design — it exists so the regression suite can show the
          bare protocol losing Termination over persistently lossy links
          that the transport would have masked *)
}

val default_config : config

(** Compile, run, and judge one spec. *)
val run : ?config:config -> Spec.t -> Ssba_harness.Runner.result * report

val failed : report -> bool
val pp_failure : Format.formatter -> failure -> unit
