(** The ss-Byz-Agree protocol (paper Figure 1, §3).

    One instance per (node, General), composing {!Initiator_accept} and
    {!Msgd_broadcast}. Once the system is stable and [n > 3f] it satisfies
    Agreement, Validity, Termination and the Timeliness properties. *)

open Types

type state =
  | Idle
  | Running  (** the anchor [tau_g] is set; blocks R–U are live *)
  | Returned of outcome * float  (** stopped; resets 3d later *)

(** Fine-grained protocol events for external monitors (all times local). *)
type observation =
  | Obs_iaccept of { v : value; tau_g : float; tau : float }
      (** the Initiator-Accept primitive issued an I-accept *)
  | Obs_mb_accept of {
      p : node_id;
      v : value;
      k : int;
      tau : float;
      tau_g : float;  (** this node's anchor at the accept, for phase math *)
    }
      (** msgd-broadcast accepted the triplet [(p, v, k)] *)
  | Obs_broadcast of { v : value; k : int; tau : float }
      (** this node broadcast [(self, v, k)] while deciding (R3/S3) *)
  | Obs_broadcaster of { p : node_id; tau : float }
      (** [p] was first identified as a broadcaster (Y1, [TPS-4]) *)

type t

(** [create ?blackout ?guard ~ctx ~g ()] — [guard] is the persistent
    per-General separation state threaded through to {!Initiator_accept};
    the node supplies one that outlives this session. [?blackout] (default
    [true]) is the {!Initiator_accept} re-initiation blackout knob. *)
val create :
  ?blackout:bool -> ?guard:Separation.t -> ctx:ctx -> g:general -> unit -> t

(** Callback fired when the instance stops (decides or aborts). *)
val set_on_return : t -> (outcome -> tau_g:float -> tau_ret:float -> unit) -> unit

(** Install an observation monitor (purely observational). *)
val set_observer : t -> (observation -> unit) -> unit

(** Block Q1: invoke the protocol upon the General's [(Initiator, G, m)]. *)
val invoke : t -> v:value -> unit

(** Dispatch any protocol message for this General. [Initiator] payloads are
    honoured only when [sender = G] (authenticated channels). *)
val handle_message : t -> sender:node_id -> message -> unit

(** Periodic cleanup (run every [d]): primitive decay plus the
    self-stabilization repairs for states only a transient fault produces. *)
val cleanup : t -> unit

val state : t -> state
val anchor : t -> float option

(** Indistinguishable from a freshly created instance (the separation guard
    is held elsewhere) — eligible for session garbage collection. *)
val quiescent : t -> bool
val general : t -> general
val initiator_accept : t -> Initiator_accept.t
val msgd_broadcast : t -> Msgd_broadcast.t

(** Block S's round matching: can every round [1..r] be given a distinct
    broadcaster, round [i]'s drawn from [candidates i]? An augmenting-path
    search ([r <= f], so it is tiny); the baseline [Tps_agree] runs the
    same one over its own accepts. *)
val matches_rounds : candidates:(int -> node_id list) -> r:int -> bool

(** Append a canonical state fingerprint of the instance and both
    primitives (the shared separation guard and the timer-invalidations
    [epoch] counter excluded) — the model checker's visited-set encoding. *)
val fingerprint : Buffer.t -> t -> unit

(** Transient-fault injection: corrupt the instance and both primitives. *)
val scramble : Ssba_sim.Rng.t -> values:value list -> t -> unit
