(** First-class, enumerable descriptions of the {!Strategies} zoo: the
    vocabulary of a scenario's Byzantine cast.

    {!Behavior.t} values are opaque closures; scenarios, generators and
    replay files need data instead. A catalog entry is a plain constructor
    tree that can be drawn at random, serialized, compared and shrunk, and
    turned into the corresponding behaviour once the protocol constants are
    known. All durations are expressed in multiples of [d] so one entry
    scales with any parameter set. *)

open Ssba_core.Types

type t =
  | Silent
  | Spam of { period_d : float; values : value list }
  | Mimic of { delay_d : float }
  | Two_faced_general of { v1 : value; v2 : value; at : float }
  | Stagger_general of { v : value; at : float; gap_d : float }
  | Partial_general of { v : value; at : float; targets : node_id list }
  | Equivocator of { v1 : value; v2 : value }
  | Flip_flop of { period_d : float; values : value list }
  | Gate_edge of { v : value; at : float }
      (** boundary-timing General ({!Strategies.gate_edge}): paces the IA
          stages so I-accepts land exactly on block R's gate boundary.
          {!generate} draws it only under [~edges:true]. *)
  | Scripted of { steps : (float * node_id option * message) list }
      (** a fixed absolute-time send transcript ([None] dst = broadcast):
          the model checker's counterexample export and the
          {!Round_stretcher}'s colluders. {!generate} never draws it. *)

(** The strategy's name, matching {!Behavior.name} of its instantiation. *)
val name : t -> string

(** Instantiate against the run's [d = (delta + pi)(1 + rho)]. *)
val to_behavior : d:float -> t -> Behavior.t

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
val equal : t -> t -> bool
