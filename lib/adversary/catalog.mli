(** The adversary vocabulary: first-class, enumerable descriptions of the
    Byzantine strategies a scenario's cast holds, and their interpreter.

    A catalog entry is a plain constructor tree that can be drawn at random,
    serialized, compared and shrunk, and {!install}ed on a node once the
    protocol constants are known. All durations are expressed in multiples
    of [d] so one entry scales with any parameter set. An installed entry
    may send any payload at any time, but only under its own authenticated
    identity (paper §2). Every strategy is rate-limited so colluding
    adversaries cannot amplify each other without bound. *)

open Ssba_core.Types

type t =
  | Silent  (** Pure crash/omission: contributes nothing. *)
  | Spam of { period_d : float; values : value list }
      (** Flood random protocol messages over [values] every [period_d];
          tests decay, memory bounds and quorum unforgeability. *)
  | Mimic of { delay_d : float }
      (** Re-send everything heard under its own identity after [delay_d],
          each distinct payload once (replay attack). *)
  | Two_faced_general of { v1 : value; v2 : value; at : float }
      (** A faulty General sending value [v1] to the even nodes and [v2] to
          the odd ones at time [at], then pushing both through
          support/approve/ready; Uniqueness [IA-4] must prevent divergent
          accepts. *)
  | Stagger_general of { v : value; at : float; gap_d : float }
      (** A faulty General spreading its initiation over [gap_d] per node
          from [at]; the block-K freshness guards must keep anchors tight or
          kill the run. *)
  | Partial_general of { v : value; at : float; targets : node_id list }
      (** A faulty General initiating towards [targets] only; the Relay
          property [IA-3] must bring every correct node to the same
          outcome. *)
  | Equivocator of { v1 : value; v2 : value }
      (** A Byzantine participant echoing support/approve/ready for [v1] to
          one half and [v2] to the other, for any General it hears about. *)
  | Flip_flop of { period_d : float; values : value list }
      (** Alternates silence and spam in bursts of [period_d]: an
          intermittently faulty node. *)
  | Gate_edge of { v : value; at : float }
      (** A boundary-timing General pacing the Initiator-Accept stages so
          correct nodes' I-accepts land exactly on block R's gate boundary:
          anchor early (Initiator at [at], Support/Approve a d apart), then
          release the Ready wave per destination staggered from [at + 4d]
          across a 3d window. The burst repeats at [at + 2 Delta_rmv + 9d],
          the same-value separation guard's decay boundary. {!generate}
          draws it only under [~edges:true]. *)
  | Scripted of { steps : (float * node_id option * message) list }
      (** A fixed transcript: each step [(at, dst, msg)] sends [msg] at
          absolute engine time [at] to [dst] ([None] broadcasts);
          deterministic and input-oblivious. The model checker exports
          counterexamples as these, and the {!Round_stretcher}'s colluders
          are these. {!generate} never draws it. *)

(** What an installed entry acts through. *)
type env = {
  self : node_id;  (** the node the entry plays *)
  params : Ssba_core.Params.t;
  engine : Ssba_sim.Engine.t;
  rng : Ssba_sim.Rng.t;  (** the entry's own stream (the spam draws) *)
  link : message Ssba_net.Link.t;
      (** the same sending surface correct nodes use (network or transport) *)
}

(** [install ~d entry env] plays [entry] on node [env.self]: it registers
    the node's link handler and schedules the entry's own activity on
    [env.engine]. Durations in units of d are scaled by the run's
    [d = (delta + pi)(1 + rho)]. *)
val install : d:float -> t -> env -> unit

(** Real times at which the entry acts on its own schedule ([at] fields);
    empty for purely reactive/periodic strategies. Generators use this to
    keep casts inside the active window. *)
val activity_times : t -> float list

(** Strictly simpler variants, in decreasing aggressiveness, ending at
    {!Silent}; [simplify Silent = []]. Shrinkers walk this. *)
val simplify : t -> t list

(** Draw a random entry over [values]; General-role attacks ([Two_faced],
    [Stagger], [Partial], [Gate_edge]) place their initiation time uniformly
    in [\[at_lo, at_hi\]] and their targets within [\[0, n)]. Without
    [~edges:true] the menu (and hence the RNG draw sequence) is the
    historical 8-way dispatch, bit-identical for corpus reproduction;
    with it, [Gate_edge] joins as a 9th equally-likely entry. *)
val generate :
  ?edges:bool -> Ssba_sim.Rng.t -> values:value list -> at_lo:float ->
  at_hi:float -> n:int -> t

val pp : Format.formatter -> t -> unit
