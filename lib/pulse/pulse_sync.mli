(** Pulse synchronization atop recurrent ss-Byz-Agree (the application the
    paper attributes to its companion work [6]).

    Cycles are numbered; the General for cycle [i] is node [i mod n]; a node
    fires pulse [i] when it decides on value ["pulse-<i>"]. Decisions at
    correct nodes are within [3d] of each other (Timeliness 1a), so pulses
    inherit that skew. A per-node timeout ladder skips silent or Byzantine
    Generals and re-synchronizes laggards after transient faults. *)

type pulse = {
  cycle : int;
  tau : float;  (** local time of the pulse *)
  rt : float;  (** simulator real time, for skew measurement *)
}

type t

(** [create ~node ~cycle_len ()] attaches a pulse layer to a protocol node.
    [cycle_len] is the local-time cycle length; raises [Invalid_argument] if
    below {!min_cycle}. The takeover timeout per skipped General is
    [Delta_agr + 20d]. *)
val create : node:Ssba_core.Node.t -> cycle_len:float -> unit -> t

(** Safe floor for [cycle_len] given the protocol constants. *)
val min_cycle : Ssba_core.Params.t -> float

(** Begin cycling: node 0 proposes cycle 0; ladders cover Byzantine starts. *)
val start : t -> unit

(** Pulses fired so far, oldest first. *)
val pulses : t -> pulse list

(** The cycle index this node is currently waiting for. *)
val next_cycle : t -> int

val set_on_pulse : t -> (pulse -> unit) -> unit

(** The agreement value encoding cycle [i]. *)
val value_of_cycle : int -> string

(** Parse a cycle index back out of an agreement value. *)
val cycle_of_value : string -> int option
