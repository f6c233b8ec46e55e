(* The reference model for the separation guard: [Separation] as it was
   before its per-value state moved into one flat array — four value-keyed
   hashtables swept by fold-to-list prunes. The body below is that module
   verbatim; the pinned corpus digests were all recorded under it.
   test_separation.ml drives it and the current [Separation] with the same
   random operations and requires every query and the fingerprint bytes to
   agree after each step.

   The send-time queries were not part of the old module's interface:
   Initiator_accept read the tables directly. [sent_within_d] and
   [support_sent_within_d] at the end are those reads, verbatim from the
   old [Initiator_accept.send] and [support_sent_recently]. *)

open Ssba_core

open Types

type t = {
  mutable last_g : float option;  (* last(G): set at N4 *)
  last_gm : (value, Time_set.t) Hashtbl.t;  (* last(G,m): sorted set-times *)
  sent_support : (value, float) Hashtbl.t;
  sent_approve : (value, float) Hashtbl.t;
  sent_ready : (value, float) Hashtbl.t;
  mutable session_value : (value * float) option;
      (* (first engaged value, engagement time) — the blackout *)
  mutable invoked_at : float option;
  mutable l4_at : float option;
  mutable m4_at : float option;
  mutable n4_at : float option;
}

let create () =
  {
    last_g = None;
    last_gm = Hashtbl.create 4;
    sent_support = Hashtbl.create 4;
    sent_approve = Hashtbl.create 4;
    sent_ready = Hashtbl.create 4;
    session_value = None;
    invoked_at = None;
    l4_at = None;
    m4_at = None;
    n4_at = None;
  }

(* last(G,m) expiry horizon: 2 * Delta_rmv + 9d (Figure 2, cleanup). *)
let last_gm_expiry (p : Params.t) = (2.0 *. p.Params.delta_rmv) +. (9.0 *. p.Params.d)

(* last(G) expiry horizon: Delta_0 - 6d (Figure 2, cleanup). *)
let last_g_expiry (p : Params.t) = p.Params.delta_0 -. (6.0 *. p.Params.d)

(* Blackout horizon: the i_value freshness window (Definition 8). *)
let session_value_expiry (p : Params.t) = p.Params.delta_rmv

let set_last_gm t v ~at =
  let sets =
    match Hashtbl.find_opt t.last_gm v with
    | Some s -> s
    | None ->
        let s = Time_set.create () in
        Hashtbl.replace t.last_gm v s;
        s
  in
  Time_set.add sets at

let last_gm_defined_at t ~params v ~at =
  match Hashtbl.find_opt t.last_gm v with
  | None -> false
  | Some sets -> Time_set.defined_at sets ~at ~expiry:(last_gm_expiry params)

let last_g_defined t ~params ~now =
  match t.last_g with
  | None -> false
  | Some s -> s <= now && now -. s <= last_g_expiry params

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

(* Figure 2's decay rules for the persistent variables; run every d. Safe to
   run both from the session's cleanup and from the node's guard sweep —
   pruning is idempotent. *)
let cleanup t ~params ~now =
  let prune tbl keep =
    let doomed = Hashtbl.fold (fun v x acc -> if keep x then acc else v :: acc) tbl [] in
    List.iter (Hashtbl.remove tbl) doomed
  in
  (match t.last_g with
  | Some s when s > now || now -. s > last_g_expiry params -> t.last_g <- None
  | Some _ | None -> ());
  let gm_horizon = now -. (last_gm_expiry params +. params.Params.d) in
  let gm_doomed = ref [] in
  Hashtbl.iter
    (fun v sets ->
      Time_set.retain_range sets ~lo:gm_horizon ~hi:now;
      if Time_set.is_empty sets then gm_doomed := v :: !gm_doomed)
    t.last_gm;
  List.iter (Hashtbl.remove t.last_gm) !gm_doomed;
  let keep_sent s = s <= now && now -. s <= 2.0 *. params.Params.delta_rmv in
  prune t.sent_support keep_sent;
  prune t.sent_approve keep_sent;
  prune t.sent_ready keep_sent;
  (match t.session_value with
  | Some (_, s) when s > now || now -. s > session_value_expiry params ->
      t.session_value <- None
  | Some _ | None -> ());
  let stale = function
    | Some s when s > now || now -. s > params.Params.delta_rmv -> true
    | Some _ | None -> false
  in
  if stale t.invoked_at then t.invoked_at <- None;
  if stale t.l4_at then t.l4_at <- None;
  if stale t.m4_at then t.m4_at <- None;
  if stale t.n4_at then t.n4_at <- None

(* Canonical state fingerprint for the model checker's visited set: every
   behaviour-relevant field, hashtables in sorted key order, floats printed
   exactly (%h). *)
let fingerprint buf t =
  let fopt buf = function
    | None -> Buffer.add_string buf "-"
    | Some x -> Printf.bprintf buf "%h" x
  in
  let sorted tbl =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  Printf.bprintf buf "sep{lg=%a;" fopt t.last_g;
  List.iter
    (fun (v, sets) ->
      Printf.bprintf buf "gm:%s=" v;
      List.iter (fun at -> Printf.bprintf buf "%h," at) (Time_set.to_list sets);
      Buffer.add_char buf ';')
    (sorted t.last_gm);
  let sent tag tbl =
    List.iter
      (fun (v, s) -> Printf.bprintf buf "%s:%s=%h;" tag v s)
      (sorted tbl)
  in
  sent "ss" t.sent_support;
  sent "sa" t.sent_approve;
  sent "sr" t.sent_ready;
  (match t.session_value with
  | None -> Buffer.add_string buf "sv=-;"
  | Some (v, s) -> Printf.bprintf buf "sv=%s@%h;" v s);
  Printf.bprintf buf "ig3=%a,%a,%a,%a}" fopt t.invoked_at fopt t.l4_at fopt
    t.m4_at fopt t.n4_at

(* Fully decayed: nothing left worth keeping — the node drops such guards. *)
let is_idle t =
  t.last_g = None
  && Hashtbl.length t.last_gm = 0
  && Hashtbl.length t.sent_support = 0
  && Hashtbl.length t.sent_approve = 0
  && Hashtbl.length t.sent_ready = 0
  && t.session_value = None
  && t.invoked_at = None
  && t.l4_at = None
  && t.m4_at = None
  && t.n4_at = None

(* ----- the old Initiator_accept's reads of the send tables -------------- *)

let sent_tbl t = function
  | Types.Support -> t.sent_support
  | Types.Approve -> t.sent_approve
  | Types.Ready -> t.sent_ready

let sent_within_d t ~params ~now kind v =
  let tau = now in
  match Hashtbl.find_opt (sent_tbl t kind) v with
  | Some s -> s <= tau && tau -. s < params.Params.d
  | None -> false

let support_sent_within_d t ~params ~now =
  let tau = now in
  let d = params.Params.d in
  Hashtbl.fold
    (fun _ s acc -> acc || (s <= tau && tau -. s >= 0.0 && tau -. s <= d))
    t.sent_support false
