(* The per-General separation guard.

   Initiator-Accept's rate-limiting variables — last(G), last(G,m), the
   per-kind send times — implement the paper's separation argument (the
   Uniqueness proof of [IA-4] and Definition 8's freshness queries). They
   must outlive any single execution of the primitive: sessions are created,
   reset, evicted and garbage-collected, but "I supported an initiation by G
   recently" is a fact about the *General*, not about one session.

   This module owns exactly that persistent state, shared by reference with
   the live session (if any) for the same General. It also holds:

   - [session_value], the re-initiation blackout: the first value this node
     engaged for G (block K or the first L1 recording). It mirrors the
     session's own i_value — same freshness horizon (Delta_rmv), cleared on
     I-accept when last(G) takes over the blocking — but, living here, it
     survives session eviction and GC. While it is fresh, block K refuses
     initiations for any *other* value, so a second initiation by G inside
     the separation window cannot seed a fresh accept even if the first
     session's state is gone — the sender-side half of the [IA-4] fix.
     It gates block K only: the relay blocks (L-N) must stay value-blind or
     a correct node engaged on the losing value of a two-faced General would
     refuse to relay the winning one, trading the [IA-4] violation for an
     [IA-3] one.

   - the [IG3] invocation report timestamps. The General reads them up to 7d
     after proposing, possibly after the session they were stamped in has
     been reset or collected; keeping them here makes the self-watchdog
     immune to session lifecycle.

   The scalar fields are transparent (see the .mli): Initiator_accept reads
   and writes them directly. The per-value state — last(G,m) and the three
   send times — is private, kept as one array of entries sorted by value.
   Every node sweeps every guard once per d, so [cleanup] is one pass over
   that array that allocates nothing per entry and compacts decayed entries
   out in place, and [is_idle] is O(1).

   A send time of [neg_infinity] means "never sent": it fails every
   freshness predicate below, decays to itself, and is not printed by
   [fingerprint]. An entry lives while its last(G,m) set is non-empty or one
   of its send times is not [neg_infinity]; [cleanup] drops it otherwise, so
   [len = 0] iff nothing per-value is left. *)

open Types

type entry = {
  v : value;
  gm : Time_set.t;  (* last(G,m): sorted set-times *)
  sent : float array;  (* per-kind send times, indexed by [slot] *)
}

type per_value = {
  mutable entries : entry array;  (* [0, len) live, ascending by value *)
  mutable len : int;
}

type t = {
  mutable last_g : float option;  (* last(G): set at N4 *)
  mutable session_value : (value * float) option;
      (* (first engaged value, engagement time) — the blackout *)
  mutable invoked_at : float option;
  mutable l4_at : float option;
  mutable m4_at : float option;
  mutable n4_at : float option;
  per_value : per_value;
}

(* Fills the free tail of [entries] so compacted-out entries are not kept
   reachable; never read. *)
let vacant = { v = ""; gm = Time_set.create (); sent = [||] }

let create () =
  {
    last_g = None;
    session_value = None;
    invoked_at = None;
    l4_at = None;
    m4_at = None;
    n4_at = None;
    per_value = { entries = [||]; len = 0 };
  }

let slot = function Support -> 0 | Approve -> 1 | Ready -> 2

(* last(G,m) expiry horizon: 2 * Delta_rmv + 9d (Figure 2, cleanup). *)
let last_gm_expiry (p : Params.t) = (2.0 *. p.Params.delta_rmv) +. (9.0 *. p.Params.d)

(* last(G) expiry horizon: Delta_0 - 6d (Figure 2, cleanup). *)
let last_g_expiry (p : Params.t) = p.Params.delta_0 -. (6.0 *. p.Params.d)

(* Blackout horizon: the i_value freshness window (Definition 8). *)
let session_value_expiry (p : Params.t) = p.Params.delta_rmv

(* Index of the first entry whose value is >= [v], in [0, len]. *)
let lower_bound pv v =
  let lo = ref 0 and hi = ref pv.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if String.compare (Array.unsafe_get pv.entries mid).v v < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

(* Index of [v]'s entry, or -1. *)
let find pv v =
  let i = lower_bound pv v in
  if i < pv.len && String.equal (Array.unsafe_get pv.entries i).v v then i else -1

(* [v]'s entry, inserted in order (with nothing recorded) if absent. *)
let entry pv v =
  let i = lower_bound pv v in
  if i < pv.len && String.equal pv.entries.(i).v v then pv.entries.(i)
  else begin
    if pv.len = Array.length pv.entries then begin
      let grown = Array.make (max 2 (2 * pv.len)) vacant in
      Array.blit pv.entries 0 grown 0 pv.len;
      pv.entries <- grown
    end;
    Array.blit pv.entries i pv.entries (i + 1) (pv.len - i);
    let e = { v; gm = Time_set.create (); sent = Array.make 3 neg_infinity } in
    pv.entries.(i) <- e;
    pv.len <- pv.len + 1;
    e
  end

let set_last_gm t v ~at = Time_set.add (entry t.per_value v).gm at

let last_gm_defined_at t ~params v ~at =
  let pv = t.per_value in
  let i = find pv v in
  i >= 0
  && Time_set.defined_at pv.entries.(i).gm ~at ~expiry:(last_gm_expiry params)

let last_g_defined t ~params ~now =
  match t.last_g with
  | None -> false
  | Some s -> s <= now && now -. s <= last_g_expiry params

(* Duplicate suppression: was ([kind], [v]) sent at some [s] with
   [s <= now] and [now - s < d]? *)
let sent_within_d t ~params ~now kind v =
  let pv = t.per_value in
  let i = find pv v in
  i >= 0
  &&
  let s = pv.entries.(i).sent.(slot kind) in
  s <= now && now -. s < params.Params.d

let record_send t kind v ~at = (entry t.per_value v).sent.(slot kind) <- at

(* K1's test: a support for any value sent within [now - d, now]. *)
let support_sent_within_d t ~params ~now =
  let pv = t.per_value in
  let d = params.Params.d in
  let found = ref false and i = ref 0 in
  while (not !found) && !i < pv.len do
    let s = pv.entries.(!i).sent.(0) in
    if s <= now && now -. s >= 0.0 && now -. s <= d then found := true;
    incr i
  done;
  !found

let plant_last_gm t v stamps =
  let gm = (entry t.per_value v).gm in
  Time_set.clear gm;
  List.iter (Time_set.add gm) stamps

(* The blackout query: is there a fresh engagement for a *different* value? *)
let blackout_blocks t ~params ~now v =
  match t.session_value with
  | Some (v', s) ->
      (not (String.equal v' v))
      && s <= now
      && now -. s <= session_value_expiry params
  | None -> false

(* Record (or refresh) the engagement. First value wins while fresh: a later
   engagement for a different value inside the window is exactly what the
   blackout exists to reject, so it must not displace the original. *)
let note_session_value t ~params ~now v =
  match t.session_value with
  | Some (v', s) when s <= now && now -. s <= session_value_expiry params ->
      if String.equal v' v then t.session_value <- Some (v, now)
  | Some _ | None -> t.session_value <- Some (v, now)

(* I-accept reached: the blackout's job is done, last(G) takes over. Mirrors
   N4 resetting the session's i_values. *)
let clear_session_value t = t.session_value <- None

(* A stamp survives decay only if it is neither in the future nor older than
   [horizon]. Written as the positive test so that a NaN stamp decays. *)
let[@inline] stale ~now ~horizon = function
  | Some s -> not (s <= now && now -. s <= horizon)
  | None -> false

(* Decay every entry and compact the live ones to the front, keeping their
   order. A helper rather than inline in [cleanup] so that [gm_lo] arrives
   boxed once per guard and the per-entry [Time_set] call passes it on
   without allocating. *)
let decay_entries pv ~params ~now ~gm_lo =
  let sent_horizon = 2.0 *. params.Params.delta_rmv in
  let kept = ref 0 in
  for i = 0 to pv.len - 1 do
    let e = pv.entries.(i) in
    Time_set.retain_range e.gm ~lo:gm_lo ~hi:now;
    let sent = e.sent in
    let live = ref (not (Time_set.is_empty e.gm)) in
    for k = 0 to 2 do
      let s = sent.(k) in
      if s <= now && now -. s <= sent_horizon then live := true
      else sent.(k) <- neg_infinity
    done;
    if !live then begin
      if !kept < i then pv.entries.(!kept) <- e;
      incr kept
    end
  done;
  if !kept < pv.len then begin
    Array.fill pv.entries !kept (pv.len - !kept) vacant;
    pv.len <- !kept
  end

(* Figure 2's decay rules for the persistent variables; run every d. Safe to
   run both from the session's cleanup and from the node's guard sweep —
   pruning is idempotent. *)
let cleanup t ~params ~now =
  if stale ~now ~horizon:(last_g_expiry params) t.last_g then t.last_g <- None;
  let pv = t.per_value in
  if pv.len > 0 then
    decay_entries pv ~params ~now
      ~gm_lo:(now -. (last_gm_expiry params +. params.Params.d));
  (match t.session_value with
  | Some (_, s) when not (s <= now && now -. s <= session_value_expiry params) ->
      t.session_value <- None
  | Some _ | None -> ());
  let rmv = params.Params.delta_rmv in
  if stale ~now ~horizon:rmv t.invoked_at then t.invoked_at <- None;
  if stale ~now ~horizon:rmv t.l4_at then t.l4_at <- None;
  if stale ~now ~horizon:rmv t.m4_at then t.m4_at <- None;
  if stale ~now ~horizon:rmv t.n4_at then t.n4_at <- None

(* When the node may skip sweeping a guard that no live session holds.
   Nobody writes such a guard, so the next sweep that changes it is the
   first at which one of its stamps decays. A stamp s with horizon e, kept
   while [s <= now && now -. s <= e], survives every sweep at a [now'] with
   [s <= now' < fl(s +. e)]: round-to-nearest never rounds past a float, so
   [now'] is at most [pred (fl (s +. e))], which lies below the exact sum,
   so [now' -. s] is at most e exactly and after rounding. The last(G,m)
   trim keeps s while [s >= fl(now' -. fl(E +. d))], and the same argument
   bounds it by its oldest stamp plus [fl(E +. d)]. The due time is the
   minimum of those bounds, taken two ulps early: early only costs a sweep
   that changes nothing, and the margin absorbs a one-rounding difference
   should either side ever compose a horizon differently. A stamp in the
   future or NaN decays at the next sweep, and so does a per-value entry
   with nothing left in it; either makes the due time [neg_infinity]. *)
let[@inline] earlier due ~now s e =
  if s <= now then
    let x = s +. e in
    if x < due then x else due
  else neg_infinity

let[@inline] earlier_opt due ~now s e =
  match s with Some s -> earlier due ~now s e | None -> due

let[@inline] next_due t ~params ~now =
  let rmv = params.Params.delta_rmv in
  let due = ref (earlier_opt infinity ~now t.last_g (last_g_expiry params)) in
  (match t.session_value with
  | Some (_, s) -> due := earlier !due ~now s (session_value_expiry params)
  | None -> ());
  due := earlier_opt !due ~now t.invoked_at rmv;
  due := earlier_opt !due ~now t.l4_at rmv;
  due := earlier_opt !due ~now t.m4_at rmv;
  due := earlier_opt !due ~now t.n4_at rmv;
  let pv = t.per_value in
  let gm_horizon = last_gm_expiry params +. params.Params.d in
  let sent_horizon = 2.0 *. rmv in
  for i = 0 to pv.len - 1 do
    let e = pv.entries.(i) in
    let gm = e.gm in
    let held = ref false in
    if not (Time_set.is_empty gm) then begin
      held := true;
      if Time_set.newest gm <= now then
        due := earlier !due ~now (Time_set.oldest gm) gm_horizon
      else due := neg_infinity
    end;
    for k = 0 to 2 do
      let s = e.sent.(k) in
      if s <> neg_infinity then begin
        held := true;
        due := earlier !due ~now s sent_horizon
      end
    done;
    if not !held then due := neg_infinity
  done;
  Float.pred (Float.pred !due)

(* Canonical state fingerprint for the model checker's visited set: every
   behaviour-relevant field, per-value state in ascending value order (the
   entries' own order), floats printed exactly (%h). *)
let fingerprint buf t =
  let add = Buffer.add_string and float = Ssba_sim.Fp_text.float in
  let fopt = function None -> add buf "-" | Some x -> float buf x in
  let pv = t.per_value in
  add buf "sep{lg="; fopt t.last_g; add buf ";";
  for i = 0 to pv.len - 1 do
    let e = pv.entries.(i) in
    if not (Time_set.is_empty e.gm) then begin
      add buf "gm:"; add buf e.v; add buf "=";
      List.iter (fun at -> float buf at; add buf ",") (Time_set.to_list e.gm);
      Buffer.add_char buf ';'
    end
  done;
  List.iter
    (fun (tag, kind) ->
      for i = 0 to pv.len - 1 do
        let e = pv.entries.(i) in
        let s = e.sent.(slot kind) in
        if s <> neg_infinity then begin
          add buf tag; add buf ":"; add buf e.v; add buf "="; float buf s;
          add buf ";"
        end
      done)
    [ ("ss", Support); ("sa", Approve); ("sr", Ready) ];
  (match t.session_value with
  | None -> Buffer.add_string buf "sv=-;"
  | Some (v, s) -> add buf "sv="; add buf v; add buf "@"; float buf s; add buf ";");
  add buf "ig3="; fopt t.invoked_at; add buf ","; fopt t.l4_at; add buf ",";
  fopt t.m4_at; add buf ","; fopt t.n4_at; add buf "}"

(* Fully decayed: nothing left worth keeping — the node drops such guards. *)
let is_idle t =
  t.last_g = None
  && t.per_value.len = 0
  && t.session_value = None
  && t.invoked_at = None
  && t.l4_at = None
  && t.m4_at = None
  && t.n4_at = None
