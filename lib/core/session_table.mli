(** Fixed-capacity session table keyed by (General, [tau_g] anchor).

    The bounded-memory discipline of the transport rings applied to protocol
    sessions: capacity is fixed at creation, overflow evicts the
    least-recently-active session deterministically (counted, never
    allocated around), quiescent sessions are garbage-collected by
    predicate, and a Scramble can corrupt every value in the table but
    never its capacity or occupancy structure.

    A session enters as [(G, None)] and is re-keyed in place to
    [(G, Some tau_g)] when its anchor is established; at most one session
    per General is live at a time (per-General executions are serialized by
    the protocol — concurrency comes from distinct (channelled) Generals).

    General ids index a plain array: lookups on any id — negative, or larger
    than any inserted one — answer "absent" and never raise; inserting a
    negative id raises [Invalid_argument]. *)

type stats = {
  capacity : int;
  live : int;
  peak_live : int;  (** high-water mark of [live] *)
  evicted : int;  (** sessions dropped to make room *)
  gced : int;  (** quiescent sessions collected *)
  rejected_at_capacity : int;
      (** non-evicting inserts refused because the table was full *)
}

type 'a t

(** Raises [Invalid_argument] unless [capacity >= 1]. *)
val create : capacity:int -> 'a t

val capacity : 'a t -> int
val live : 'a t -> int
val stats : 'a t -> stats

(** The live session for [g], if any. *)
val find : 'a t -> Types.general -> 'a option

(** The anchor component of [g]'s session key. *)
val anchor : 'a t -> Types.general -> float option

(** Insert a fresh [(g, None)] session. Replaces any existing session for
    [g]; evicts the least-recently-active session when full. Raises
    [Invalid_argument] when [g < 0]. *)
val insert : 'a t -> g:Types.general -> now:float -> 'a -> unit

(** Like {!insert}, but reports the General whose live session was evicted to
    make room (if any) so the caller can attribute the sacrifice. *)
val insert_reporting :
  'a t -> g:Types.general -> now:float -> 'a -> Types.general option

(** Like {!insert}, but never evicts: when the table is full and [g] holds no
    slot to replace, the insert is refused ([false]) and counted in
    [rejected_at_capacity]. The admission-controlled entry point. *)
val try_insert : 'a t -> g:Types.general -> now:float -> 'a -> bool

(** Refresh the session's activity time (monotone). *)
val touch : 'a t -> Types.general -> now:float -> unit

(** Re-key the session to [(g, Some anchor)]. *)
val set_anchor : 'a t -> Types.general -> float -> unit

val remove : 'a t -> Types.general -> unit

(** Every session with its key, last-activity time and creation stamp — the
    bookkeeping that determines eviction order, which state fingerprints
    must cover. *)
val iter_detail :
  'a t ->
  (g:Types.general ->
  anchor:float option ->
  active:float ->
  stamp:int ->
  'a ->
  unit) ->
  unit

(** The periodic walk, in two phases: first [f] on every live session, in
    slot order, then collection of every session [dead] declares dead.

    [f] may re-enter the table (insert, evict, touch): each slot is read
    when the walk reaches it, so a session inserted ahead of the walk is
    visited and one inserted behind it is not; collection judges the table
    as [f] left it.

    Inserts fill the lowest free slot, so both phases stop one past the
    highest occupied slot, a bound re-read at every step: a table holding
    few sessions costs a walk over few slots, and the sessions visited and
    collected are exactly those of a walk over all [capacity] slots. The
    bound is derived from the slots' occupancy.

    [dead] also sees the session's last-activity time: callers must
    grace-period recently-active sessions, because a session is momentarily
    indistinguishable from a dead one between its creation and its first
    protocol message (e.g. a General's own proposal racing its self-addressed
    Initiator). An empty table is skipped in O(1). *)
val sweep :
  'a t ->
  f:(g:Types.general -> 'a -> unit) ->
  dead:(active:float -> 'a -> bool) ->
  unit

(** Corrupt anchors, activity times and payloads (via [corrupt]); capacity
    and occupancy are structural and survive. *)
val scramble :
  Ssba_sim.Rng.t -> rtime:(unit -> float) -> corrupt:('a -> unit) -> 'a t -> unit
