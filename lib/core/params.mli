(** Protocol constants (paper §2 and §3).

    All durations derive from [d = (delta + pi)(1 + rho)], the bound on the
    local-time lapse from a correct send to every correct node having
    processed the message. *)

(** Variant of block R's fast-path gate (Figure 1). [Legacy] is the figure
    verbatim (4d gate); [Widen] raises the gate to the 5d slack [IA-1D]
    actually guarantees. *)
type r_slack = Legacy | Widen

(** The shipped default: [Widen], certified exhaustively by the [ssba_mc]
    [knife] config (experiment E15). *)
val default_r_slack : r_slack

val r_slack_to_string : r_slack -> string

(** Inverse of {!r_slack_to_string}; accepts ["legacy"] and ["widen"]. *)
val r_slack_of_string : string -> r_slack option

type t = {
  n : int;  (** number of nodes *)
  f : int;  (** bound on concurrent permanent Byzantine faults; [n > 3f] *)
  delta : float;  (** max message delay while the network is correct *)
  pi : float;  (** max processing time *)
  rho : float;  (** clock drift bound *)
  d : float;  (** [(delta + pi)(1 + rho)] *)
  tau_skew : float;  (** [6d] — bound between correct nodes' tau^G anchors *)
  phi : float;  (** [tau_skew + 2d] — duration of one phase *)
  delta_agr : float;  (** [(2f+1) Phi] — bound on running the agreement *)
  delta_0 : float;  (** [13d] — min initiation spacing, any value *)
  delta_rmv : float;  (** [Delta_agr + Delta_0] — decay horizon *)
  delta_v : float;  (** [15d + 2 Delta_rmv] — min spacing, same value *)
  delta_node : float;  (** [Delta_v + Delta_agr] — non-faulty -> correct *)
  delta_reset : float;  (** [20d + 4 Delta_rmv] — General quiet period *)
  delta_stb : float;  (** [2 Delta_reset] — stabilization time *)
  r_slack : r_slack;  (** block R gate variant *)
}

(** Build the full constant cascade from the base quantities, with
    [r_slack = default_r_slack]. Raises [Invalid_argument] on nonsensical
    inputs: a NaN [delta], [pi] or [rho] included, and base quantities so
    large that a derived constant is not finite. *)
val make : n:int -> f:int -> delta:float -> pi:float -> rho:float -> t

(** Same cascade, different block-R gate variant. *)
val with_r_slack : t -> r_slack -> t

(** Largest [f] with [n > 3f]. *)
val max_faults : int -> int

(** [default n] uses [f = max_faults n], millisecond-scale delays and a small
    drift, overridable per argument. *)
val default :
  ?f:int -> ?delta:float -> ?pi:float -> ?rho:float -> ?r_slack:r_slack -> int -> t

(** Block R's fast-path deadline: the round-0 decide fires when
    [tau - tau_g <= r_gate t]. [5d] under [Widen], [4d] under [Legacy]. *)
val r_gate : t -> float

(** [delta_eff ~delta ~p ~rto ~retries] is the effective message-delay bound
    over a link that loses each frame with probability [p], masked by the
    reliable transport's retransmission (timeout [rto], exponential backoff,
    at most [retries] retransmissions):
    [delta + rto * (2^retries - 1)] when [p > 0], else [delta].
    Instantiate the cascade (via {!make} or {!default}) at this bound to keep
    the paper's timeouts sound over a persistently lossy link. *)
val delta_eff : delta:float -> p:float -> rto:float -> retries:int -> float

(** Check the [n > 3f] resilience condition. *)
val validate : t -> (unit, string) result

(** [n - f]: the strong threshold used by the primitives. *)
val quorum : t -> int

(** [n - 2f]: the weak threshold (guarantees at least one correct sender). *)
val weak_quorum : t -> int

val pp : Format.formatter -> t -> unit
