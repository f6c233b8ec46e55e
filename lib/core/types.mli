(** Shared protocol types: everything a node may put on the wire, the
    returns it reports, and the execution context the state machines run
    against. The sender identity is always carried by the network envelope
    (authenticated), never inside a payload. *)

type node_id = int

type general = node_id
(** A General id. With the footnote-9 channels extension this may be a
    {e logical} id in [0, n * channels); the physical node behind it is
    [g mod n]. *)

type value = string

(** Initiator-Accept message kinds (Figure 2). *)
type ia_kind = Support | Approve | Ready

(** msgd-broadcast message kinds (Figure 3); [Init2]/[Echo2] are the paper's
    primed init'/echo'. *)
type mb_kind = Init | Echo | Init2 | Echo2

type message =
  | Initiator of { g : general; v : value }
      (** the General's initiation (block Q0) *)
  | Ia of { kind : ia_kind; g : general; v : value }
  | Mb of { kind : mb_kind; p : node_id; g : general; v : value; k : int }
      (** broadcast traffic: broadcaster [p], agreement instance [g], round
          tag [k] *)

(** What an agreement instance returns (Definition 7). *)
type outcome = Decided of value | Aborted

type return_info = {
  node : node_id;
  g : general;
  outcome : outcome;
  tau_g : float;  (** the local anchor rt(tau_g) is measured against *)
  tau_ret : float;  (** local return time *)
  rt_ret : float;  (** simulator real time of the return *)
}

val string_of_ia_kind : ia_kind -> string
val string_of_mb_kind : mb_kind -> string

(** Coarse classifier for per-kind network statistics. *)
val kind_of_message : message -> string

(** [add_message buf m] appends the model checker's text of [m], e.g.
    [(echo p=1 G=0 "a" k=2)]; the string value is quoted as by [%S]. *)
val add_message : Buffer.t -> message -> unit

val pp_outcome : Format.formatter -> outcome -> unit
val pp_return : Format.formatter -> return_info -> unit

type ctx = {
  params : Params.t;
  self : node_id;
  local_time : unit -> float;  (** current local-clock reading *)
  send_all : message -> unit;  (** broadcast to all nodes, self included *)
  after_local : float -> (unit -> unit) -> unit;
      (** arm a timer a local-time duration ahead *)
  trace : Ssba_sim.Trace.event -> unit;
      (** record a typed event; rendered only when tracing is enabled *)
}
(** Execution context handed to the protocol state machines by the node
    glue; every layer is unit-testable against a fake one. *)
