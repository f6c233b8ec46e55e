(** The per-General separation guard: the rate-limiting state behind the
    paper's Uniqueness argument ([IA-4]), factored out of the session so it
    survives session reset, eviction and garbage collection.

    One guard lives per (node, General); the live session for that General
    (if any) holds it by reference. The scalar fields — [last(G)], the
    re-initiation blackout and the [IG3] report stamps — are transparent:
    {!Initiator_accept} reads and writes them on the protocol hot path. The
    per-value state ([last(G,m)] and the per-kind send times) is private and
    reached only through the functions below, so its representation can stay
    one flat array that {!cleanup} sweeps without allocating; {!Node} sweeps
    every guard once per [d] and drops those that are {!is_idle}. *)

open Types

(** [last(G,m)] and the send times, per value. *)
type per_value

type t = {
  mutable last_g : float option;  (** [last(G)]: set at N4 *)
  mutable session_value : (value * float) option;
      (** re-initiation blackout: first value engaged for G, with time *)
  mutable invoked_at : float option;  (** [IG3] report: block K executed *)
  mutable l4_at : float option;
  mutable m4_at : float option;
  mutable n4_at : float option;
  per_value : per_value;
}

val create : unit -> t

(** [last(G,m)] expiry horizon: [2 * Delta_rmv + 9d]. *)
val last_gm_expiry : Params.t -> float

(** [last(G)] expiry horizon: [Delta_0 - 6d]. *)
val last_g_expiry : Params.t -> float

(** Blackout horizon, mirroring i_value freshness: [Delta_rmv]. *)
val session_value_expiry : Params.t -> float

val set_last_gm : t -> value -> at:float -> unit

(** Definition 8's freshness query: was [last(G,m)] defined at time [at]? *)
val last_gm_defined_at : t -> params:Params.t -> value -> at:float -> bool

val last_g_defined : t -> params:Params.t -> now:float -> bool

(** Duplicate suppression: was a [kind] message for [v] sent at some [s]
    with [s <= now] and [now -. s < d]? *)
val sent_within_d :
  t -> params:Params.t -> now:float -> ia_kind -> value -> bool

(** Record that a [kind] message for [v] was sent at [at]. *)
val record_send : t -> ia_kind -> value -> at:float -> unit

(** Block K1's test: was a support for {e any} value sent at some [s] with
    [0 <= now -. s <= d]? *)
val support_sent_within_d : t -> params:Params.t -> now:float -> bool

(** Fault injection: replace [v]'s [last(G,m)] set-times with [stamps]. *)
val plant_last_gm : t -> value -> float list -> unit

(** Is there a fresh engagement for a {e different} value? While true,
    block K must reject initiations of [v]. Gates block K only — the relay
    blocks must stay value-blind to preserve [IA-3]. *)
val blackout_blocks : t -> params:Params.t -> now:float -> value -> bool

(** Record (or refresh) the engaged value; a fresh engagement for a
    different value is never displaced. *)
val note_session_value : t -> params:Params.t -> now:float -> value -> unit

(** I-accept reached: drop the blackout ([last(G)] takes over). *)
val clear_session_value : t -> unit

(** Figure 2's decay rules for the persistent variables; idempotent. A
    stamp is kept only while [s <= now] and it is within its horizon, so a
    stamp in the future, or NaN, decays. One in-place pass over the
    per-value state, allocating nothing per value. *)
val cleanup : t -> params:Params.t -> now:float -> unit

(** [next_due t ~params ~now], for a guard swept at [now]: a local time
    before which {!cleanup} at any later time leaves [t] unchanged, as long
    as nothing writes [t] meanwhile. It is the earliest expiry over the
    stamps, taken two ulps early, and [neg_infinity] if a stamp lies in the
    future or is NaN. Never late; allocates nothing once inlined. *)
val next_due : t -> params:Params.t -> now:float -> float

(** Fully decayed — eligible for dropping by the node's guard sweep. O(1). *)
val is_idle : t -> bool

(** Append a canonical state fingerprint (per-value state in ascending
    value order, exact float text) — the model checker's visited-set
    encoding. *)
val fingerprint : Buffer.t -> t -> unit
