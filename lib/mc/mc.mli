(** Bounded exhaustive checker over the real protocol core.

    Runs the production {!Ssba_core.Node} / {!Ssba_sim.Engine} /
    {!Ssba_net.Network} stack with every source of nondeterminism — delivery
    delays (discretized to the config's lattice, grouped into choice classes)
    and Byzantine script menus — resolved by an explicit choice vector, then
    enumerates choice-vector prefixes breadth-first. States are fingerprinted
    for a visited set; partial-order reduction merges commuting delivery
    orders and never branches deliveries bound for (input-oblivious)
    Byzantine nodes. Runs are judged by the existing oracles. See DESIGN.md
    §10 for the soundness statement and its caveats. *)

open Ssba_core.Types

type choice = {
  c_label : string;  (** what was being decided *)
  c_options : int;
  c_picked : int;
}

type run = {
  prefix : int array;  (** the choice vector that produced this run *)
  choices : choice list;  (** fresh choice points, in execution order *)
  fingerprints : string list;
      (** world fingerprint at each fresh choice. Complete only in a run from
          {!run_vector}: the explorer fingerprints a run only from its
          prefix's length on, and re-runs its counterexample through
          {!run_vector}. *)
  next : (string * int * string) option;
      (** fingerprint, option count and label of the first choice point
          beyond the prefix; [None] when the run branched nowhere new *)
  pruned : bool;  (** aborted: the first free choice's state was visited *)
  violations : string list;  (** pairwise-agreement oracle + invariants *)
  splits : string list;  (** split decisions (see {!explore}) *)
  returns : return_info list;
  sends : ((node_id * node_id) * float) list;
      (** every send's chosen delay, in send order *)
  transcript : (node_id * (float * node_id option * message) list) list;
      (** what each Byzantine node actually sent ([None] dst = broadcast) *)
  events : int;  (** engine events processed *)
}

(** Execute one run under a fixed choice vector (choices beyond the vector
    default to option 0) and judge it. Deterministic: same config, [por] and
    vector give the same run. *)
val run_vector : Config.t -> por:bool -> int array -> run

type report = {
  config_name : string;
  por : bool;
  depth : int;
  explored : int;
      (** prefixes expanded (internal prefixes, leaves, pruned). A prefix
          ending in option 0 is expanded from its parent's run, which it
          repeats step for step, so only prefixes that are empty or end in a
          non-default choice are executed — and each of those is judged. *)
  judged : int;  (** complete choice assignments judged by the oracles *)
  pruned : int;  (** subtrees cut by the visited set *)
  frontier : int;  (** choice points left unexpanded by the depth bound *)
  deepest : int;  (** longest prefix reached *)
  violations : (string * int array) list;
      (** distinct oracle violations with a minimal-depth witness prefix *)
  splits : (string * int array) list;
      (** distinct split decisions — two correct nodes deciding different
          values for the same General with anchors within 4d (the IA-4a
          violation the re-initiation blackout prevents) *)
  counterexample : run option;
      (** first judged run with a split decision; breadth-first order makes
          it minimal in branching depth *)
  truncated : bool;  (** stopped by [max_runs], not by exhaustion *)
}

(** Breadth-first exhaustive exploration of the choice tree to [depth]
    branching points, with visited-state pruning. [max_runs] (default
    200_000) is a safety valve on expanded prefixes (the [explored] count);
    [truncated] reports if it fired. *)
val explore : ?max_runs:int -> Config.t -> por:bool -> depth:int -> report

val pp_prefix : Format.formatter -> int array -> unit
val pp_report : Format.formatter -> report -> unit

(** Pin an explored run as a replayable fuzz spec: the Byzantine transcript
    becomes a {!Ssba_adversary.Catalog.Scripted} cast and the delivery
    schedule a [Ssba_net.Delay.Scripted] delay, so [ssba_fuzz --replay] re-executes
    the same world and reproduces the violation. *)
val spec_of_run : Config.t -> run -> name:string -> Ssba_fuzz.Spec.t

(** E14: states explored, POR reduction factor, smoke/split verdicts, at
    depth 24. *)
val e14 : unit -> unit
