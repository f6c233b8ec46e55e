(* The reference model for Initiator-Accept's per-value state:
   [Initiator_accept] as it was before its six value-keyed tables (three
   receive-log tables and three stamp tables) moved into one sorted array of
   per-value slots. The body below is that module verbatim; the pinned
   corpus digests were all recorded under it. test_initiator_accept.ml
   drives it and the current [Initiator_accept] with the same random
   operations and requires every query answer, send, accept callback and
   the fingerprint bytes to agree after each step. *)

open Ssba_core

open Types

type invocation_report = {
  invoked_at : float option;  (* block K execution (this node invoked) *)
  l4_at : float option;  (* first approve send after invocation *)
  m4_at : float option;  (* first ready send after invocation *)
  n4_at : float option;  (* I-accept after invocation *)
}

type t = {
  g : general;
  ctx : ctx;
  support : (value, Recv_log.t) Hashtbl.t;
  approve : (value, Recv_log.t) Hashtbl.t;
  ready : (value, Recv_log.t) Hashtbl.t;
  i_values : (value, float) Hashtbl.t;
  ready_flag : (value, float) Hashtbl.t;  (* value -> set-time of ready_{G,m} *)
  guard : Separation.t;  (* persistent per-General separation state *)
  ignore_until : (value, float) Hashtbl.t;  (* N4's 3d ignore window *)
  blackout : bool;  (* false disables the re-initiation blackout (checker knob) *)
  mutable accepted : (value * float * float) option;  (* (m, tau_g, tau_accept) *)
  mutable on_accept : value -> tau_g:float -> unit;
}

let create ?(blackout = true) ?guard ~ctx ~g () =
  {
    g;
    ctx;
    support = Hashtbl.create 4;
    approve = Hashtbl.create 4;
    ready = Hashtbl.create 4;
    i_values = Hashtbl.create 4;
    ready_flag = Hashtbl.create 4;
    guard = (match guard with Some s -> s | None -> Separation.create ());
    ignore_until = Hashtbl.create 4;
    blackout;
    accepted = None;
    on_accept = (fun _ ~tau_g:_ -> ());
  }

let guard t = t.guard

let set_on_accept t f = t.on_accept <- f

let log_of tbl v =
  match Hashtbl.find_opt tbl v with
  | Some l -> l
  | None ->
      let l = Recv_log.create () in
      Hashtbl.replace tbl v l;
      l

let now t = t.ctx.local_time ()
let p t = t.ctx.params

(* The rate-limiting variables live in the separation guard (see the module
   comment); these are thin wrappers binding in our clock and parameters. *)
let set_last_gm t v = Separation.set_last_gm t.guard v ~at:(now t)

(* Was last(G,m) defined at local time [at]? It was iff some set happened at
   [s <= at] and had not yet expired: [at - s <= expiry]. *)
let last_gm_defined_at t v ~at =
  Separation.last_gm_defined_at t.guard ~params:(p t) v ~at

let last_g_defined t = Separation.last_g_defined t.guard ~params:(p t) ~now:(now t)

(* Current (unexpired, non-future) recording time for value [v]. *)
let i_value t v =
  let tau = now t in
  match Hashtbl.find_opt t.i_values v with
  | Some r when r <= tau && tau -. r <= (p t).Params.delta_rmv -> Some r
  | Some _ | None -> None

let ready_flag_fresh t v =
  let tau = now t in
  match Hashtbl.find_opt t.ready_flag v with
  | Some s -> s <= tau && tau -. s <= (p t).Params.delta_rmv
  | None -> false

let accepted t = t.accepted

let invocation_report t =
  {
    invoked_at = t.guard.Separation.invoked_at;
    l4_at = t.guard.Separation.l4_at;
    m4_at = t.guard.Separation.m4_at;
    n4_at = t.guard.Separation.n4_at;
  }

let ignoring t v =
  match Hashtbl.find_opt t.ignore_until v with
  | Some until -> now t < until
  | None -> false

(* Send with duplicate suppression: at most one (kind, v) per d. The paper
   allows arbitrary re-sending ("we ignore possible optimizations"); bounding
   it keeps message complexity at the O(n^2)-per-agreement the round
   structure implies, and every proof only needs each send to happen once per
   condition epoch. *)
let send t kind v =
  let tau = now t in
  if not (Separation.sent_within_d t.guard ~params:(p t) ~now:tau kind v) then begin
    Separation.record_send t.guard kind v ~at:tau;
    t.ctx.send_all (Ia { kind; g = t.g; v });
    (* IG3 self-monitoring timestamps: first execution after invocation. *)
    let sep = t.guard in
    (match (kind, sep.Separation.invoked_at) with
    | Approve, Some inv ->
        if sep.Separation.l4_at = None || sep.Separation.l4_at < Some inv then
          sep.Separation.l4_at <- Some tau
    | Ready, Some inv ->
        if sep.Separation.m4_at = None || sep.Separation.m4_at < Some inv then
          sep.Separation.m4_at <- Some tau
    | (Support | Approve | Ready), _ -> ())
  end

let support_sent_recently t =
  Separation.support_sent_within_d t.guard ~params:(p t) ~now:(now t)

(* Block N4: the I-accept. *)
let do_accept t v =
  let tau = now t in
  match i_value t v with
  | None ->
      (* A corrupted state can reach N3 with no live recording time; the
         paper's sanitization discards clearly-wrong entries, so we refuse to
         accept rather than anchor on garbage. Only reachable before
         stabilization. *)
      t.ctx.trace
        (Ssba_sim.Trace.Ia_skip { g = t.g; reason = "no live recording time" })
  | Some tau_g ->
      let sep = t.guard in
      (match sep.Separation.invoked_at with
      | Some inv when sep.Separation.n4_at = None || sep.Separation.n4_at < Some inv ->
          sep.Separation.n4_at <- Some tau
      | Some _ | None -> ());
      Hashtbl.reset t.i_values;
      Hashtbl.remove t.support v;
      Hashtbl.remove t.approve v;
      Hashtbl.remove t.ready v;
      Hashtbl.replace t.ignore_until v (tau +. (3.0 *. (p t).Params.d));
      t.accepted <- Some (v, tau_g, tau);
      set_last_gm t v;
      sep.Separation.last_g <- Some tau;
      (* The blackout's job ends where last(G)'s begins. *)
      Separation.clear_session_value sep;
      t.ctx.trace (Ssba_sim.Trace.I_accept { g = t.g; v; tau_g });
      t.on_accept v ~tau_g

(* Evaluate blocks L, M, N for value [v]; called after every arrival. *)
let eval t v =
  let tau = now t in
  let prm = p t in
  let d = prm.Params.d in
  let n_f = Params.quorum prm in
  let n_2f = Params.weak_quorum prm in
  let support = log_of t.support v in
  let approve = log_of t.approve v in
  let ready = log_of t.ready v in
  (* L1/L2 *)
  (match Recv_log.shortest_window support ~now:tau ~count:n_2f with
  | Some alpha when alpha <= 4.0 *. d ->
      let recording = tau -. alpha -. (2.0 *. d) in
      let updated =
        match Hashtbl.find_opt t.i_values v with
        | Some cur -> Float.max cur recording
        | None -> recording
      in
      Hashtbl.replace t.i_values v updated;
      Separation.note_session_value t.guard ~params:prm ~now:tau v;
      set_last_gm t v
  | Some _ | None -> ());
  (* L3/L4 *)
  if Recv_log.count_in_window support ~now:tau ~width:(2.0 *. d) >= n_f then begin
    send t Approve v;
    set_last_gm t v
  end;
  (* M1/M2 *)
  if Recv_log.count_in_window approve ~now:tau ~width:(5.0 *. d) >= n_2f then begin
    Hashtbl.replace t.ready_flag v tau;
    set_last_gm t v
  end;
  (* M3/M4 *)
  if Recv_log.count_in_window approve ~now:tau ~width:(3.0 *. d) >= n_f then begin
    send t Ready v;
    set_last_gm t v
  end;
  (* N1/N2 *)
  if ready_flag_fresh t v && Recv_log.count ready >= n_2f then begin
    send t Ready v;
    set_last_gm t v
  end;
  (* N3/N4 — at most once per execution of the primitive. *)
  if t.accepted = None && ready_flag_fresh t v && Recv_log.count ready >= n_f then
    do_accept t v

(* Block K: invocation, on receiving (Initiator, G, m). *)
let handle_initiator t v =
  let tau = now t in
  if not (ignoring t v) then begin
    let other_i_value_defined =
      Hashtbl.fold
        (fun v' _ acc -> acc || ((not (String.equal v' v)) && i_value t v' <> None))
        t.i_values false
    in
    let fresh =
      (not other_i_value_defined)
      && (not (last_g_defined t))
      && (not (support_sent_recently t))
      && (not (last_gm_defined_at t v ~at:(tau -. (p t).Params.d)))
      (* Re-initiation blackout: the same test as other_i_value_defined, but
         against the guard's persistent mirror, so a second initiation
         cannot slip through after the session holding i_values was reset,
         evicted or collected. The [blackout] knob exists so the model
         checker can demonstrate the split this guard prevents. *)
      && not
           (t.blackout
           && Separation.blackout_blocks t.guard ~params:(p t) ~now:tau v)
    in
    if fresh then begin
      (* K2 *)
      Hashtbl.replace t.i_values v (tau -. (p t).Params.d);
      Separation.note_session_value t.guard ~params:(p t) ~now:tau v;
      let sep = t.guard in
      sep.Separation.invoked_at <- Some tau;
      sep.Separation.l4_at <- None;
      sep.Separation.m4_at <- None;
      sep.Separation.n4_at <- None;
      send t Support v;
      set_last_gm t v;
      t.ctx.trace (Ssba_sim.Trace.Ia_invoke { g = t.g; v });
      eval t v
    end
    else t.ctx.trace (Ssba_sim.Trace.Ia_reject { g = t.g; v })
  end

(* Arrival of a support/approve/ready message. *)
let handle_message t ~kind ~sender ~v =
  if not (ignoring t v) then begin
    let tau = now t in
    let log =
      match kind with
      | Support -> log_of t.support v
      | Approve -> log_of t.approve v
      | Ready -> log_of t.ready v
    in
    Recv_log.note log ~sender ~at:tau;
    eval t v
  end

(* Decay a table of receive logs, dropping the logs left empty. *)
let sweep_logs tbl ~now ~horizon =
  Hashtbl.iter
    (fun _ log ->
      Recv_log.sanitize log ~now;
      Recv_log.decay log ~horizon)
    tbl;
  let empty = Hashtbl.fold (fun v l acc -> if Recv_log.is_empty l then v :: acc else acc) tbl [] in
  List.iter (Hashtbl.remove tbl) empty

let prune tbl keep =
  let doomed = Hashtbl.fold (fun v x acc -> if keep x then acc else v :: acc) tbl [] in
  List.iter (Hashtbl.remove tbl) doomed

(* Figure 2's cleanup block, run periodically (every d) by the node. After
   the post-return reset most tables are empty, and an empty one is skipped
   without walking its buckets. *)
let cleanup t =
  let tau = now t in
  let prm = p t in
  let horizon = tau -. prm.Params.delta_rmv in
  if Hashtbl.length t.support > 0 then sweep_logs t.support ~now:tau ~horizon;
  if Hashtbl.length t.approve > 0 then sweep_logs t.approve ~now:tau ~horizon;
  if Hashtbl.length t.ready > 0 then sweep_logs t.ready ~now:tau ~horizon;
  if Hashtbl.length t.i_values > 0 then
    prune t.i_values (fun r -> r <= tau && tau -. r <= prm.Params.delta_rmv);
  if Hashtbl.length t.ready_flag > 0 then
    prune t.ready_flag (fun s -> s <= tau && tau -. s <= prm.Params.delta_rmv);
  if Hashtbl.length t.ignore_until > 0 then
    prune t.ignore_until (fun until ->
        until > tau && until <= tau +. (4.0 *. prm.Params.d));
  (* The persistent variables decay in the guard; its cleanup is idempotent,
     so running it here *and* in the node's guard sweep is harmless. *)
  Separation.cleanup t.guard ~params:prm ~now:tau;
  (* Self-stabilization safety net: an accepted tuple can only be corrupt if
     its timestamps are impossible or it outlived the whole agreement. *)
  match t.accepted with
  | Some (_, tau_g, ta)
    when ta > tau || tau_g > ta || tau -. ta > prm.Params.delta_rmv ->
      t.accepted <- None
  | Some _ | None -> ()

(* Q0 side-condition: the General, before initiating, removes all previously
   received messages associated with earlier invocations with him as General.
   Only messages are dropped; the rate-limiting variables survive. *)
let forget_messages t =
  Hashtbl.reset t.support;
  Hashtbl.reset t.approve;
  Hashtbl.reset t.ready

(* Reset driven by ss-Byz-Agree's cleanup, 3d after the agreement returns:
   logs, candidate values and the accept are cleared. Everything in the
   separation guard — last(G), last(G,m), send times, the blackout, the
   [IG3] invocation report (read by the General up to 7d after proposing,
   possibly after this reset) — persists by construction: it lives in the
   guard, not here. *)
let reset t =
  Hashtbl.reset t.support;
  Hashtbl.reset t.approve;
  Hashtbl.reset t.ready;
  Hashtbl.reset t.i_values;
  Hashtbl.reset t.ready_flag;
  Hashtbl.reset t.ignore_until;
  t.accepted <- None

(* Indistinguishable (to the protocol) from a freshly created session: every
   session-local table empty and no live accept. The guard is *not*
   consulted — it survives collection by design. *)
let quiescent t =
  Hashtbl.length t.support = 0
  && Hashtbl.length t.approve = 0
  && Hashtbl.length t.ready = 0
  && Hashtbl.length t.i_values = 0
  && Hashtbl.length t.ready_flag = 0
  && Hashtbl.length t.ignore_until = 0
  && t.accepted = None

(* Canonical state fingerprint for the model checker's visited set. Covers
   every field that influences future behaviour except the guard (the node
   fingerprints guards separately — they are shared by reference and would
   otherwise be written twice) and the static [blackout] knob. Hashtables
   are iterated in sorted key order; receive logs are already canonical
   (ascending (time, sender)); floats are printed exactly (%h). *)
let fingerprint buf t =
  let sorted tbl =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  let logs tag tbl =
    List.iter
      (fun (v, log) ->
        Printf.bprintf buf "%s:%s=" tag v;
        Recv_log.iter_entries log (fun ~sender ~at ->
            Printf.bprintf buf "%d@%h," sender at);
        Buffer.add_char buf ';')
      (sorted tbl)
  in
  let times tag tbl =
    List.iter
      (fun (v, x) -> Printf.bprintf buf "%s:%s=%h;" tag v x)
      (sorted tbl)
  in
  Printf.bprintf buf "ia{g=%d;" t.g;
  logs "s" t.support;
  logs "a" t.approve;
  logs "r" t.ready;
  times "iv" t.i_values;
  times "rf" t.ready_flag;
  times "ig" t.ignore_until;
  (match t.accepted with
  | None -> Buffer.add_string buf "acc=-}"
  | Some (v, tau_g, ta) -> Printf.bprintf buf "acc=%s@%h/%h}" v tau_g ta)

(* Transient-fault injection: fill every variable with plausible garbage.
   Times are drawn around the current local time, both past and future, so
   the cleanup/sanitization paths are all exercised. *)
let scramble rng ~values t =
  let tau = now t in
  let prm = p t in
  let span = 3.0 *. prm.Params.delta_rmv in
  let rtime () = tau +. Ssba_sim.Rng.float_in_range rng ~lo:(-.span) ~hi:prm.Params.delta_rmv in
  let n = prm.Params.n in
  let each_value f = List.iter f values in
  each_value (fun v ->
      if Ssba_sim.Rng.bool rng then begin
        let log = log_of t.support v in
        let k = Ssba_sim.Rng.int rng (n + 1) in
        for _ = 1 to k do
          Recv_log.corrupt log ~sender:(Ssba_sim.Rng.int rng n) ~at:(rtime ())
        done
      end;
      if Ssba_sim.Rng.bool rng then begin
        let log = log_of t.approve v in
        for _ = 1 to Ssba_sim.Rng.int rng (n + 1) do
          Recv_log.corrupt log ~sender:(Ssba_sim.Rng.int rng n) ~at:(rtime ())
        done
      end;
      if Ssba_sim.Rng.bool rng then begin
        let log = log_of t.ready v in
        for _ = 1 to Ssba_sim.Rng.int rng (n + 1) do
          Recv_log.corrupt log ~sender:(Ssba_sim.Rng.int rng n) ~at:(rtime ())
        done
      end;
      if Ssba_sim.Rng.bool rng then Hashtbl.replace t.i_values v (rtime ());
      if Ssba_sim.Rng.bool rng then Hashtbl.replace t.ready_flag v (rtime ());
      if Ssba_sim.Rng.bool rng then begin
        let a = rtime () in
        let b = rtime () in
        Separation.plant_last_gm t.guard v [ a; b ]
      end;
      if Ssba_sim.Rng.bool rng then begin
        (* The stamp is drawn before the kind: the draw order is pinned. *)
        let at = rtime () in
        let kind = Ssba_sim.Rng.pick rng [| Support; Approve; Ready |] in
        Separation.record_send t.guard kind v ~at
      end;
      if Ssba_sim.Rng.bool rng then Hashtbl.replace t.ignore_until v (rtime ()));
  if Ssba_sim.Rng.bool rng then t.guard.Separation.last_g <- Some (rtime ());
  if Ssba_sim.Rng.bool rng then t.guard.Separation.invoked_at <- Some (rtime ());
  if Ssba_sim.Rng.bool rng then
    t.guard.Separation.session_value <-
      Some (Ssba_sim.Rng.pick_list rng values, rtime ());
  if Ssba_sim.Rng.bool rng then
    t.accepted <-
      Some (Ssba_sim.Rng.pick_list rng values, rtime (), rtime ())
