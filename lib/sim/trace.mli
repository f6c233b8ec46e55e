(** Structured run traces: timestamped, per-node, {e typed} events.

    Events carry their data unformatted; rendering to text happens only in
    {!pp} and {!to_jsonl}, so a disabled trace performs zero detail-string
    allocations on the hot path. The {!Ext} case is the generic extension
    point: a kind tag plus a deferred renderer. *)

type event =
  | Send of { src : int; dst : int; msg : string }
  | Deliver of { src : int; dst : int; msg : string }
  | Drop of { src : int; dst : int; msg : string; reason : string }
  | Propose of { g : int; v : string }
  | Ia_invoke of { g : int; v : string }
  | Ia_reject of { g : int; v : string }  (** block K1 freshness rejection *)
  | Ia_skip of { g : int; reason : string }  (** block N4 refused to anchor *)
  | I_accept of { g : int; v : string; tau_g : float }
  | Anchor_set of { g : int; tau_g : float }  (** msgd-broadcast anchored *)
  | Mb_accept of { g : int; p : int; v : string; k : int }
  | Mb_broadcaster of { g : int; p : int; total : int }
  | Agree_return of { g : int; decided : string option; tau_g : float }
      (** [decided = None] is an abort *)
  | Ig3_failure of { g : int }
  | Scramble of { garbage : int }
  | Reform of { node : int }
      (** a Byzantine node rejoined the correct protocol from arbitrary
          state *)
  | Delay_surge of { factor : float }
      (** delivery delays scaled by [factor]; [0.0] marks the restore *)
  | Duplicate of { src : int; dst : int; msg : string }
      (** network-level duplication fault: a second copy of a sent message *)
  | Retransmit of { src : int; dst : int; msg : string; attempt : int }
      (** transport resending an unacked frame; [attempt] is 1-based *)
  | Dup_suppress of { src : int; dst : int; seq : int }
      (** transport receive-side dedup dropped an already-seen frame *)
  | Retries_exhausted of { src : int; dst : int; msg : string; seq : int }
      (** transport gave up on an unacked frame after the retry cap *)
  | Service_admit of { g : int; live : int }
      (** service admission controller let a proposal through *)
  | Service_shed of { g : int; reason : string }
      (** service admission controller turned a proposal away *)
  | Service_queue of { g : int; depth : int }
      (** proposal parked in the bounded pending queue; [depth] after *)
  | Service_mode of { degraded : bool; live : int }
      (** overload detector flipped the service mode *)
  | Session_evict of { g : int }
      (** a full session table evicted General [g]'s session to make room *)
  | Ext of { kind : string; render : unit -> string }
      (** generic extension: [render] runs only when the event is printed or
          exported *)

(** The stable kind tag an event is filtered and exported under. *)
val kind_of_event : event -> string

(** Render an event's detail text (calls [Ext.render]). *)
val detail_of_event : event -> string

type entry = {
  time : float;  (** simulator real time *)
  node : int;  (** -1 for system/network events *)
  event : event;
}

val entry_kind : entry -> string
val entry_detail : entry -> string

type t

(** [create ?enabled ()] builds a trace; a disabled trace drops all records.
    The choice holds for the trace's whole life. *)
val create : ?enabled:bool -> unit -> t

val is_enabled : t -> bool
val record : t -> time:float -> node:int -> event -> unit

(** Number of entries recorded. *)
val count : t -> int

(** Entries in chronological order. *)
val to_list : t -> entry list

(** Chronological entries matching the given node and/or kind. *)
val filter : ?node:int -> ?kind:string -> t -> entry list

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit

(** One JSON object per line ({i time}, {i node}, {i kind}, plus the event's
    fields), chronological. *)
val to_jsonl : t -> string
