(* The Initiator-Accept primitive (paper Figure 2, §4).

   One instance runs per (node, General). The primitive makes all correct
   nodes associate a bounded-skew local-time anchor tau^G with the General's
   initiation and converge on a single candidate value, even from an
   arbitrary (transiently corrupted) initial state.

   Block structure, transcribed from the figure:
     K  — invocation: on receiving (Initiator, G, m), check the freshness
          guards and send (support, G, m); record i_values[G,m] := tau - d.
     L  — on >= n-2f supports within a window of width <= 4d, refresh the
          recording time (L1/L2); on >= n-f supports within 2d, send approve
          (L3/L4).
     M  — on >= n-2f approves within 5d, raise ready_{G,m} (M1/M2); on
          >= n-f approves within 3d, send ready (M3/M4).
     N  — untimed amplification: with ready_{G,m} set, >= n-2f ready
          messages trigger our own ready (N1/N2) and >= n-f trigger the
          I-accept with tau^G := i_values[G,m] (N3/N4).
     cleanup — decay of messages/values older than Delta_rmv, and expiry of
          the rate-limiting variables last(G) and last(G,m).

   State kept per instance (names follow the paper):
     i_values[m]   — candidate recording times;
     ready_flag[m] — the ready_{G,m} variable with its set-time (decays);
     guard         — the {!Separation} guard holding the persistent
                     per-General rate limiters: last(G) (set at N4, expires
                     after Delta_0 - 6d), last(G,m) (the set of recent
                     set-times, because block K needs to know whether the
                     variable was defined d time units in the past —
                     Definition 8's freshness query), the per-kind send
                     times (duplicate suppression plus K1's "no
                     (support, G, *) sent within [tau-d, tau]" test), the
                     re-initiation blackout, and the IG3 report stamps.
                     The guard is shared by reference with the node so that
                     these variables outlive session reset/eviction/GC.

   Layout. Everything kept per value m — the support/approve/ready receive
   logs, i_values[m], ready_flag[m] and N4's ignore-until stamp — lives in
   one slot, and the slots sit in one array sorted by value, so an arrival
   costs one binary search. A slot's [mask] records which of those six
   variables is *present*, with the exact key presence of the six value-keyed
   tables this layout replaced: evaluating blocks L–N makes all three logs
   present, even empty ones; N4 drops every value's i_value but only m's
   logs; cleanup drops a log once it is empty and a stamp once it decays.
   Presence is observable — a present but empty log still prints in the
   fingerprint and keeps the session from being [quiescent] — so it is kept
   bit for bit. A log whose bit is clear is empty, and the array holds no
   slot whose mask is 0 once an operation returns, so [quiescent] is O(1).
   The stamps live in a flat float array beside the slots (three per slot),
   so writing one boxes nothing. *)

open Types

type invocation_report = {
  invoked_at : float option;  (* block K execution (this node invoked) *)
  l4_at : float option;  (* first approve send after invocation *)
  m4_at : float option;  (* first ready send after invocation *)
  n4_at : float option;  (* I-accept after invocation *)
}

type slot = {
  v : value;
  support : Recv_log.t;
  approve : Recv_log.t;
  ready : Recv_log.t;
  mutable mask : int;  (* presence bits, below *)
}

let b_support = 1
let b_approve = 2
let b_ready = 4
let b_logs = 7
let b_i_value = 8
let b_ready_flag = 16
let b_ignore = 32

(* Offsets of a slot's stamps in [stamps]. *)
let k_i_value = 0
let k_ready_flag = 1
let k_ignore = 2

type t = {
  g : general;
  ctx : ctx;
  mutable slots : slot array;  (* [0, len) live, ascending by value *)
  mutable stamps : float array;  (* slot i's stamp k at [3 * i + k] *)
  mutable len : int;
  guard : Separation.t;  (* persistent per-General separation state *)
  blackout : bool;  (* false disables the re-initiation blackout (checker knob) *)
  mutable accepted : (value * float * float) option;  (* (m, tau_g, tau_accept) *)
  mutable on_accept : value -> tau_g:float -> unit;
}

(* Fills the free tail of [slots] so dropped slots are not kept reachable;
   never read. *)
let vacant =
  {
    v = "";
    support = Recv_log.create ();
    approve = Recv_log.create ();
    ready = Recv_log.create ();
    mask = 0;
  }

let create ?(blackout = true) ?guard ~ctx ~g () =
  {
    g;
    ctx;
    slots = [||];
    stamps = [||];
    len = 0;
    guard = (match guard with Some s -> s | None -> Separation.create ());
    blackout;
    accepted = None;
    on_accept = (fun _ ~tau_g:_ -> ());
  }

let guard t = t.guard

let set_on_accept t f = t.on_accept <- f

(* Index of the first slot whose value is >= [v], in [0, len]. *)
let lower_bound t v =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if String.compare (Array.unsafe_get t.slots mid).v v < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

(* Index of [v]'s slot, or -1. *)
let find t v =
  let i = lower_bound t v in
  if i < t.len && String.equal t.slots.(i).v v then i else -1

(* Open an empty slot (mask 0) for [v] at its sorted position [i]; the
   caller sets a presence bit before returning. *)
let insert_at t i v =
  if t.len = Array.length t.slots then begin
    let cap = max 2 (2 * t.len) in
    let slots = Array.make cap vacant and stamps = Array.make (3 * cap) 0.0 in
    Array.blit t.slots 0 slots 0 t.len;
    Array.blit t.stamps 0 stamps 0 (3 * t.len);
    t.slots <- slots;
    t.stamps <- stamps
  end;
  Array.blit t.slots i t.slots (i + 1) (t.len - i);
  Array.blit t.stamps (3 * i) t.stamps (3 * (i + 1)) (3 * (t.len - i));
  t.slots.(i) <-
    {
      v;
      support = Recv_log.create ();
      approve = Recv_log.create ();
      ready = Recv_log.create ();
      mask = 0;
    };
  t.len <- t.len + 1;
  i

(* [v]'s slot, opened if absent. *)
let slot_of t v =
  let i = lower_bound t v in
  if i < t.len && String.equal t.slots.(i).v v then i else insert_at t i v

let[@inline] present t i bit = t.slots.(i).mask land bit <> 0
let[@inline] stamp t i k = t.stamps.((3 * i) + k)

let[@inline] set_stamp t i k bit x =
  t.stamps.((3 * i) + k) <- x;
  let sl = t.slots.(i) in
  sl.mask <- sl.mask lor bit

(* Drop the slots whose mask is 0, keeping the others in order. *)
let compact t =
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    let sl = t.slots.(i) in
    if sl.mask <> 0 then begin
      if !kept < i then begin
        t.slots.(!kept) <- sl;
        Array.blit t.stamps (3 * i) t.stamps (3 * !kept) 3
      end;
      incr kept
    end
  done;
  if !kept < t.len then begin
    Array.fill t.slots !kept (t.len - !kept) vacant;
    t.len <- !kept
  end

(* Drop slot [i]'s three logs: clear their presence and empty them. *)
let drop_logs t i =
  let sl = t.slots.(i) in
  Recv_log.clear sl.support;
  Recv_log.clear sl.approve;
  Recv_log.clear sl.ready;
  sl.mask <- sl.mask land lnot b_logs

let now t = t.ctx.local_time ()
let p t = t.ctx.params

(* The rate-limiting variables live in the separation guard (see the module
   comment); these are thin wrappers binding in our guard, clock and
   parameters. A handler reads the clock once and passes its [tau] on:
   local time does not move while a handler runs. *)
let set_last_gm t v ~tau = Separation.set_last_gm t.guard v ~at:tau

(* Was last(G,m) defined at local time [at]? It was iff some set happened at
   [s <= at] and had not yet expired: [at - s <= expiry]. *)
let last_gm_defined_at t v ~at =
  Separation.last_gm_defined_at t.guard ~params:(p t) v ~at

let last_g_defined t = Separation.last_g_defined t.guard ~params:(p t) ~now:(now t)

(* Is slot [i]'s i_value present, not in the future and unexpired? *)
let i_value_live t i ~tau =
  present t i b_i_value
  &&
  let r = stamp t i k_i_value in
  r <= tau && tau -. r <= (p t).Params.delta_rmv

(* Current (unexpired, non-future) recording time for value [v]. *)
let i_value t v =
  let i = find t v in
  if i >= 0 && i_value_live t i ~tau:(now t) then Some (stamp t i k_i_value)
  else None

let ready_flag_live t i ~tau =
  present t i b_ready_flag
  &&
  let s = stamp t i k_ready_flag in
  s <= tau && tau -. s <= (p t).Params.delta_rmv

let ready_flag_fresh t v =
  let i = find t v in
  i >= 0 && ready_flag_live t i ~tau:(now t)

let accepted t = t.accepted

let invocation_report t =
  {
    invoked_at = t.guard.Separation.invoked_at;
    l4_at = t.guard.Separation.l4_at;
    m4_at = t.guard.Separation.m4_at;
    n4_at = t.guard.Separation.n4_at;
  }

let ignoring_at t i ~tau = present t i b_ignore && tau < stamp t i k_ignore

let ignoring t v =
  let i = find t v in
  i >= 0 && ignoring_at t i ~tau:(now t)

(* Send with duplicate suppression: at most one (kind, v) per d. The paper
   allows arbitrary re-sending ("we ignore possible optimizations"); bounding
   it keeps message complexity at the O(n^2)-per-agreement the round
   structure implies, and every proof only needs each send to happen once per
   condition epoch. *)
let send t kind v ~tau =
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

(* Block N4: the I-accept, for slot [i]. *)
let do_accept t i ~tau =
  if not (i_value_live t i ~tau) then
    (* A corrupted state can reach N3 with no live recording time; the
       paper's sanitization discards clearly-wrong entries, so we refuse to
       accept rather than anchor on garbage. Only reachable before
       stabilization. *)
    t.ctx.trace
      (Ssba_sim.Trace.Ia_skip { g = t.g; reason = "no live recording time" })
  else begin
    let tau_g = stamp t i k_i_value in
    let v = t.slots.(i).v in
    let sep = t.guard in
    (match sep.Separation.invoked_at with
    | Some inv when sep.Separation.n4_at = None || sep.Separation.n4_at < Some inv ->
        sep.Separation.n4_at <- Some tau
    | Some _ | None -> ());
    (* every value's i_value goes, but only v's logs *)
    for j = 0 to t.len - 1 do
      let sl = t.slots.(j) in
      sl.mask <- sl.mask land lnot b_i_value
    done;
    drop_logs t i;
    set_stamp t i k_ignore b_ignore (tau +. (3.0 *. (p t).Params.d));
    compact t;
    t.accepted <- Some (v, tau_g, tau);
    set_last_gm t v ~tau;
    sep.Separation.last_g <- Some tau;
    (* The blackout's job ends where last(G)'s begins. *)
    Separation.clear_session_value sep;
    t.ctx.trace (Ssba_sim.Trace.I_accept { g = t.g; v; tau_g });
    t.on_accept v ~tau_g
  end

(* Evaluate blocks L, M, N for slot [i]'s value at local time [tau]; called
   after every arrival. Evaluating makes all three of the value's logs
   present. The slot index stays valid throughout: nothing before N4 (the
   last step) inserts or drops a slot — a send is only queued on the link,
   never delivered synchronously. *)
let eval t i ~tau =
  let prm = p t in
  let d = prm.Params.d in
  let n_f = Params.quorum prm in
  let n_2f = Params.weak_quorum prm in
  let sl = t.slots.(i) in
  let v = sl.v in
  sl.mask <- sl.mask lor b_logs;
  (* L1/L2 *)
  (match Recv_log.shortest_window sl.support ~now:tau ~count:n_2f with
  | Some alpha when alpha <= 4.0 *. d ->
      let recording = tau -. alpha -. (2.0 *. d) in
      let updated =
        if present t i b_i_value then Float.max (stamp t i k_i_value) recording
        else recording
      in
      set_stamp t i k_i_value b_i_value updated;
      Separation.note_session_value t.guard ~params:prm ~now:tau v;
      set_last_gm t v ~tau
  | Some _ | None -> ());
  (* L3/L4 *)
  if Recv_log.count_in_window sl.support ~now:tau ~width:(2.0 *. d) >= n_f then begin
    send t Approve v ~tau;
    set_last_gm t v ~tau
  end;
  (* M1/M2 *)
  if Recv_log.count_in_window sl.approve ~now:tau ~width:(5.0 *. d) >= n_2f then begin
    set_stamp t i k_ready_flag b_ready_flag tau;
    set_last_gm t v ~tau
  end;
  (* M3/M4 *)
  if Recv_log.count_in_window sl.approve ~now:tau ~width:(3.0 *. d) >= n_f then begin
    send t Ready v ~tau;
    set_last_gm t v ~tau
  end;
  (* N1/N2 *)
  if ready_flag_live t i ~tau && Recv_log.count sl.ready >= n_2f then begin
    send t Ready v ~tau;
    set_last_gm t v ~tau
  end;
  (* N3/N4 — at most once per execution of the primitive. *)
  if t.accepted = None && ready_flag_live t i ~tau && Recv_log.count sl.ready >= n_f then
    do_accept t i ~tau

(* Block K: invocation, on receiving (Initiator, G, m). *)
let handle_initiator t v =
  let tau = now t in
  if not (ignoring t v) then begin
    let other_i_value_defined = ref false in
    for j = 0 to t.len - 1 do
      if (not (String.equal t.slots.(j).v v)) && i_value_live t j ~tau then
        other_i_value_defined := true
    done;
    let fresh =
      (not !other_i_value_defined)
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
      let i = slot_of t v in
      set_stamp t i k_i_value b_i_value (tau -. (p t).Params.d);
      Separation.note_session_value t.guard ~params:(p t) ~now:tau v;
      let sep = t.guard in
      sep.Separation.invoked_at <- Some tau;
      sep.Separation.l4_at <- None;
      sep.Separation.m4_at <- None;
      sep.Separation.n4_at <- None;
      send t Support v ~tau;
      set_last_gm t v ~tau;
      t.ctx.trace (Ssba_sim.Trace.Ia_invoke { g = t.g; v });
      eval t i ~tau
    end
    else t.ctx.trace (Ssba_sim.Trace.Ia_reject { g = t.g; v })
  end

(* Arrival of a support/approve/ready message: one slot lookup serves the
   ignore test, the log update and blocks L–N. *)
let handle_message t ~kind ~sender ~v =
  let tau = now t in
  let i = lower_bound t v in
  let found = i < t.len && String.equal t.slots.(i).v v in
  if not (found && ignoring_at t i ~tau) then begin
    let i = if found then i else insert_at t i v in
    let sl = t.slots.(i) in
    let log =
      match kind with
      | Support -> sl.support
      | Approve -> sl.approve
      | Ready -> sl.ready
    in
    sl.mask <- sl.mask lor b_logs;
    Recv_log.note log ~sender ~at:tau;
    eval t i ~tau
  end

(* Sanitize and decay a present log; its bit goes once it is empty. *)
let sweep_log log bit m ~now ~horizon =
  if m land bit = 0 then m
  else begin
    Recv_log.sanitize log ~now;
    Recv_log.decay log ~horizon;
    if Recv_log.is_empty log then m land lnot bit else m
  end

(* Decay every slot, then drop the emptied ones. A stamp that fails its keep
   test loses its bit (clearing an absent one is a no-op). A helper rather
   than inline in [cleanup] so that the float bounds arrive boxed once per
   sweep and the per-log calls pass them on without allocating. *)
let sweep_slots t ~now ~horizon ~rmv ~ignore_hi =
  for i = 0 to t.len - 1 do
    let sl = t.slots.(i) in
    let m = sweep_log sl.support b_support sl.mask ~now ~horizon in
    let m = sweep_log sl.approve b_approve m ~now ~horizon in
    let m = sweep_log sl.ready b_ready m ~now ~horizon in
    let r = stamp t i k_i_value
    and s = stamp t i k_ready_flag
    and until = stamp t i k_ignore in
    let m = if r <= now && now -. r <= rmv then m else m land lnot b_i_value in
    let m = if s <= now && now -. s <= rmv then m else m land lnot b_ready_flag in
    let m = if until > now && until <= ignore_hi then m else m land lnot b_ignore in
    sl.mask <- m
  done;
  compact t

(* Figure 2's cleanup block, run periodically (every d) by the node. The
   slot sweep is skipped when there are none (after the post-return
   reset). *)
let cleanup t =
  let tau = now t in
  let prm = p t in
  if t.len > 0 then
    sweep_slots t ~now:tau ~horizon:(tau -. prm.Params.delta_rmv)
      ~rmv:prm.Params.delta_rmv
      ~ignore_hi:(tau +. (4.0 *. prm.Params.d));
  (* The persistent variables decay in the guard. The node sweeps a guard
     itself only while no live session holds it; cleanup is idempotent. *)
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
  for i = 0 to t.len - 1 do
    drop_logs t i
  done;
  compact t

(* Reset driven by ss-Byz-Agree's cleanup, 3d after the agreement returns:
   logs, candidate values and the accept are cleared. Everything in the
   separation guard — last(G), last(G,m), send times, the blackout, the
   [IG3] invocation report (read by the General up to 7d after proposing,
   possibly after this reset) — persists by construction: it lives in the
   guard, not here. *)
let reset t =
  Array.fill t.slots 0 t.len vacant;
  t.len <- 0;
  t.accepted <- None

(* Indistinguishable (to the protocol) from a freshly created session: no
   per-value variable present and no live accept. The guard is *not*
   consulted — it survives collection by design. *)
let quiescent t = t.len = 0 && t.accepted = None

(* Canonical state fingerprint for the model checker's visited set. Covers
   every field that influences future behaviour except the guard (the node
   fingerprints guards separately — they are shared by reference and would
   otherwise be written twice) and the static [blackout] knob. Each variable
   is printed for every value where it is present, in ascending value order
   (the slots' own order) — the text the six per-variable tables printed in
   sorted key order; receive logs are already canonical (ascending (time,
   sender)); floats are printed exactly (%h). *)
let fingerprint buf t =
  let add = Buffer.add_string and int = Ssba_sim.Fp_text.int in
  let float = Ssba_sim.Fp_text.float in
  let logs tag bit log_of =
    for i = 0 to t.len - 1 do
      let sl = t.slots.(i) in
      if sl.mask land bit <> 0 then begin
        add buf tag; add buf ":"; add buf sl.v; add buf "=";
        Recv_log.iter_entries (log_of sl) (fun ~sender ~at ->
            int buf sender; add buf "@"; float buf at; add buf ",");
        Buffer.add_char buf ';'
      end
    done
  in
  let times tag bit k =
    for i = 0 to t.len - 1 do
      if present t i bit then begin
        add buf tag; add buf ":"; add buf t.slots.(i).v; add buf "=";
        float buf (stamp t i k); add buf ";"
      end
    done
  in
  add buf "ia{g="; int buf t.g; add buf ";";
  logs "s" b_support (fun sl -> sl.support);
  logs "a" b_approve (fun sl -> sl.approve);
  logs "r" b_ready (fun sl -> sl.ready);
  times "iv" b_i_value k_i_value;
  times "rf" b_ready_flag k_ready_flag;
  times "ig" b_ignore k_ignore;
  (match t.accepted with
  | None -> Buffer.add_string buf "acc=-}"
  | Some (v, tau_g, ta) ->
      add buf "acc="; add buf v; add buf "@"; float buf tau_g; add buf "/";
      float buf ta; add buf "}")

(* Transient-fault injection: fill every variable with plausible garbage.
   Times are drawn around the current local time, both past and future, so
   the cleanup/sanitization paths are all exercised. A log drawn with no
   entries is still made present. *)
let scramble rng ~values t =
  let tau = now t in
  let prm = p t in
  let span = 3.0 *. prm.Params.delta_rmv in
  let rtime () = tau +. Ssba_sim.Rng.float_in_range rng ~lo:(-.span) ~hi:prm.Params.delta_rmv in
  let n = prm.Params.n in
  let each_value f = List.iter f values in
  let plant v k bit x = set_stamp t (slot_of t v) k bit x in
  let corrupt_log v bit log_of =
    if Ssba_sim.Rng.bool rng then begin
      let sl = t.slots.(slot_of t v) in
      sl.mask <- sl.mask lor bit;
      let log = log_of sl in
      for _ = 1 to Ssba_sim.Rng.int rng (n + 1) do
        Recv_log.corrupt log ~sender:(Ssba_sim.Rng.int rng n) ~at:(rtime ())
      done
    end
  in
  each_value (fun v ->
      corrupt_log v b_support (fun sl -> sl.support);
      corrupt_log v b_approve (fun sl -> sl.approve);
      corrupt_log v b_ready (fun sl -> sl.ready);
      if Ssba_sim.Rng.bool rng then plant v k_i_value b_i_value (rtime ());
      if Ssba_sim.Rng.bool rng then plant v k_ready_flag b_ready_flag (rtime ());
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
      if Ssba_sim.Rng.bool rng then plant v k_ignore b_ignore (rtime ()));
  if Ssba_sim.Rng.bool rng then t.guard.Separation.last_g <- Some (rtime ());
  if Ssba_sim.Rng.bool rng then t.guard.Separation.invoked_at <- Some (rtime ());
  if Ssba_sim.Rng.bool rng then
    t.guard.Separation.session_value <-
      Some (Ssba_sim.Rng.pick_list rng values, rtime ());
  if Ssba_sim.Rng.bool rng then
    t.accepted <-
      Some (Ssba_sim.Rng.pick_list rng values, rtime (), rtime ())
