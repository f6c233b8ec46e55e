(* Node glue: wires the protocol state machines to the engine, clock and
   network, multiplexes per-General agreement instances, and implements the
   General-side Sending Validity Criteria [IG1]–[IG3] of §3/§4.

   Everything protocol-visible runs in local time; this module owns the
   conversion (timers are local durations turned into real delays through the
   node's drift rate). *)

open Types
module Engine = Ssba_sim.Engine
module Clock = Ssba_sim.Clock
module Trace = Ssba_sim.Trace
module Metrics = Ssba_sim.Metrics
module Fp_text = Ssba_sim.Fp_text

type link = message Ssba_net.Link.t

type t = {
  id : node_id;
  params : Params.t;
  clock : Clock.t;
  engine : Engine.t;
  link : link;
      (* the sending surface: the raw network, or a reliable transport
         session when the scenario runs over a persistently faulty link *)
  channels : int;
      (* concurrent-invocation support (paper footnote 9): logical General
         ids range over [0, n * channels); logical g maps to physical node
         g mod n, and the Sending Validity Criteria are enforced per logical
         General, which is exactly how the paper says the rate limits can be
         circumvented safely *)
  instances : Ss_byz_agree.t Session_table.t;
      (* the session table: one live (logical G, anchor) session per slot,
         fixed capacity, deterministic eviction, quiescence GC *)
  guards : Separation.t option array;
      (* the per-General separation guards, indexed by logical General id
         (length n * channels); they outlive their sessions and are only
         dropped once fully decayed (and no session holds them) *)
  guard_ids : int array;
      (* the ids of the guards that exist, ascending, in [0, n_guards): the
         tick walks these instead of every id *)
  mutable n_guards : int;
  guard_due : float array;
      (* per guard: the local time before which the tick need not sweep it
         while no session holds it ([Separation.next_due]); [neg_infinity]
         = at the next tick *)
  guard_swept : int array;
      (* per guard: the tick at which its live session's cleanup last swept
         it *)
  mutable ticks : int;
  blackout : bool;
      (* the Initiator-Accept re-initiation blackout knob; false only in the
         model checker's weakened-oracle sensitivity runs *)
  admission : bool;
      (* when set, the General's own proposals never evict: a full session
         table refuses the proposal ([At_capacity], counted by the table as
         [rejected_at_capacity]) instead of dropping a live session. Message
         receipt keeps the evicting path — admission guards new local work,
         not the protocol's reaction to the network. *)
  mutable returns : return_info list;  (* newest first *)
  mutable subscribers : (return_info -> unit) list;
  mutable observers : (general -> Ss_byz_agree.observation -> unit) list;
  (* General-side state for the Sending Validity Criteria, per logical id: *)
  last_init_at : (general, float) Hashtbl.t;  (* IG1 *)
  last_value_init_at : (general * value, float) Hashtbl.t;  (* IG2 *)
  blocked_until : (general, float) Hashtbl.t;  (* IG3 *)
  mutable cleanup_running : bool;
  (* per-node protocol counters in the engine's shared registry *)
  c_proposals : Metrics.counter;
  c_decided : Metrics.counter;
  c_aborted : Metrics.counter;
}

let id t = t.id
let params t = t.params
let clock t = t.clock
let engine t = t.engine
let local_time t = Clock.read t.clock ~now:(Engine.now t.engine)
let instance_count t = Session_table.live t.instances
let session_stats t = Session_table.stats t.instances
let returns t = List.rev t.returns
let subscribe t f = t.subscribers <- f :: t.subscribers
let subscribe_observations t f = t.observers <- f :: t.observers

let ctx_of t =
  {
    params = t.params;
    self = t.id;
    local_time = (fun () -> local_time t);
    send_all = (fun msg -> Ssba_net.Link.broadcast t.link ~src:t.id msg);
    after_local =
      (fun dl f ->
        Engine.schedule_after t.engine ~delay:(Clock.real_of_local_duration t.clock dl) f);
    trace = (fun event -> Engine.record t.engine ~node:t.id event);
  }

(* Insert [g] into the ascending ids of the guards that exist. *)
let add_guard_id t g =
  let ids = t.guard_ids in
  let k = ref t.n_guards in
  while !k > 0 && ids.(!k - 1) > g do
    ids.(!k) <- ids.(!k - 1);
    decr k
  done;
  ids.(!k) <- g;
  t.n_guards <- t.n_guards + 1

(* Attaching a session resets the guard's due time: only a live session
   writes a guard, and one may write it and be evicted before the next
   tick. *)
let guard_of t g =
  t.guard_due.(g) <- neg_infinity;
  match t.guards.(g) with
  | Some s -> s
  | None ->
      let s = Separation.create () in
      t.guards.(g) <- Some s;
      add_guard_id t g;
      s

(* A fresh session joins the table as (g, None) and is re-keyed to
   (g, Some tau_g) when its I-accept anchors it; the separation guard is
   found-or-created independently so a session recreated after eviction/GC
   still sees last(G), last(G,m) and the blackout. *)
let make_instance t g =
  let inst =
    Ss_byz_agree.create ~blackout:t.blackout ~guard:(guard_of t g)
      ~ctx:(ctx_of t) ~g ()
  in
  Ss_byz_agree.set_on_return inst (fun outcome ~tau_g ~tau_ret ->
      let r =
        {
          node = t.id;
          g;
          outcome;
          tau_g;
          tau_ret;
          rt_ret = Engine.now t.engine;
        }
      in
      t.returns <- r :: t.returns;
      (match outcome with
      | Decided _ -> Metrics.incr t.c_decided
      | Aborted -> Metrics.incr t.c_aborted);
      List.iter (fun f -> f r) t.subscribers);
  Ss_byz_agree.set_observer inst (fun obs ->
      (match obs with
      | Ss_byz_agree.Obs_iaccept { tau_g; _ } ->
          Session_table.set_anchor t.instances g tau_g
      | Ss_byz_agree.Obs_mb_accept _ | Ss_byz_agree.Obs_broadcast _
      | Ss_byz_agree.Obs_broadcaster _ -> ());
      List.iter (fun f -> f g obs) t.observers);
  inst

let instance t g =
  match Session_table.find t.instances g with
  | Some inst ->
      Session_table.touch t.instances g ~now:(local_time t);
      inst
  | None ->
      let inst = make_instance t g in
      (match Session_table.insert_reporting t.instances ~g ~now:(local_time t) inst with
      | Some victim ->
          Engine.record t.engine ~node:t.id (Trace.Session_evict { g = victim })
      | None -> ());
      inst

(* Admission-controlled session lookup for the General's own proposals:
   never evicts — [None] means the table is full and the proposal must be
   refused (the table counts it in [rejected_at_capacity]). *)
let instance_admit t g =
  match Session_table.find t.instances g with
  | Some inst ->
      Session_table.touch t.instances g ~now:(local_time t);
      Some inst
  | None ->
      let inst = make_instance t g in
      if Session_table.try_insert t.instances ~g ~now:(local_time t) inst then
        Some inst
      else None

(* The physical node behind a logical General id. *)
let physical t g = g mod t.params.Params.n

let handle_envelope t (env : message Ssba_net.Msg.t) =
  let sender = env.Ssba_net.Msg.src in
  let msg = env.Ssba_net.Msg.payload in
  let g =
    match msg with
    | Initiator { g; _ } -> g
    | Ia { g; _ } -> g
    | Mb { g; _ } -> g
  in
  (* Out-of-range (logical) General ids can only be garbage. Initiator
     authentication is against the physical node behind the logical id. *)
  if g >= 0 && g < t.params.Params.n * t.channels then
    match msg with
    | Initiator _ when sender <> physical t g -> ()
    | Initiator _ | Ia _ | Mb _ ->
        Ss_byz_agree.handle_message (instance t g) ~sender msg

(* Periodic cleanup at granularity d (local), per Figures 1–3, plus the
   session-table lifecycle: instances whose protocol state has fully decayed
   are collected (their guards persist), and guards that have themselves
   decayed to nothing — and are not referenced by a live session — are
   dropped. Between them the node's memory is bounded by the table capacity
   plus n * channels guards, regardless of how many agreements ever ran.

   Each guard is swept at most once per tick. A session's cleanup sweeps
   its guard, so the guard loop skips the guard of every live session whose
   cleanup ran this tick; it sweeps a live session's guard itself only if
   the session was inserted, by a re-entrant proposal, behind the table
   walk. A guard no live session holds is written by nobody (a timer of an
   evicted or collected session reaches only its return and reset, which
   leave the guard alone), so it is swept only once its due time has come.
   Cleanup is idempotent at one tau, and a sweep before the due time
   changes nothing, so none of this is observable.

   The guard loop walks the ids of the guards that exist, in ascending id,
   as a walk over every id would meet them, and drops a decayed guard's id
   as it goes. Nothing in the loop creates a guard (only a session does,
   and the loop creates none), so the ids it compacts stay put. *)
let start_cleanup t =
  if not t.cleanup_running then begin
    t.cleanup_running <- true;
    let d = t.params.Params.d in
    let cleanup_session ~g inst =
      Ss_byz_agree.cleanup inst;
      t.guard_swept.(g) <- t.ticks
    in
    let rec tick () =
      t.ticks <- t.ticks + 1;
      let tau = local_time t in
      (* The grace period covers the blind spot between a session's creation
         and its first protocol message (a fresh session is quiescent): a
         General's own proposal must not be collected while its self-addressed
         Initiator is still in flight. *)
      Session_table.sweep t.instances ~f:cleanup_session ~dead:(fun ~active inst ->
          tau -. active > 4.0 *. d && Ss_byz_agree.quiescent inst);
      let guards = t.guards and ids = t.guard_ids in
      let kept = ref 0 in
      for k = 0 to t.n_guards - 1 do
        let g = ids.(k) in
        match guards.(g) with
        | None -> ()
        | Some sep ->
            let keep =
              if Session_table.find t.instances g = None then begin
                if tau >= t.guard_due.(g) then begin
                  Separation.cleanup sep ~params:t.params ~now:tau;
                  if Separation.is_idle sep then false
                  else begin
                    t.guard_due.(g) <- Separation.next_due sep ~params:t.params ~now:tau;
                    true
                  end
                end
                else true
              end
              else begin
                if t.guard_swept.(g) <> t.ticks then
                  Separation.cleanup sep ~params:t.params ~now:tau;
                true
              end
            in
            if keep then begin
              ids.(!kept) <- g;
              incr kept
            end
            else guards.(g) <- None
      done;
      t.n_guards <- !kept;
      Engine.schedule_after t.engine
        ~delay:(Clock.real_of_local_duration t.clock d)
        tick
    in
    tick ()
  end

let create_on ?(channels = 1) ?session_capacity ?(blackout = true)
    ?(admission = false) ~id ~params ~clock ~engine ~link () =
  if channels < 1 then invalid_arg "Node.create_on: channels must be >= 1";
  let capacity =
    (* Every logical General can be live at once, so that is the natural
       floor; a smaller table would evict under normal operation. *)
    match session_capacity with
    | Some c -> c
    | None -> max 8 (params.Params.n * channels)
  in
  let t =
    {
      id;
      params;
      clock;
      engine;
      link;
      channels;
      blackout;
      admission;
      instances = Session_table.create ~capacity;
      guards = Array.make (params.Params.n * channels) None;
      guard_ids = Array.make (params.Params.n * channels) 0;
      n_guards = 0;
      guard_due = Array.make (params.Params.n * channels) neg_infinity;
      guard_swept = Array.make (params.Params.n * channels) 0;
      ticks = 0;
      returns = [];
      subscribers = [];
      observers = [];
      last_init_at = Hashtbl.create 4;
      last_value_init_at = Hashtbl.create 4;
      blocked_until = Hashtbl.create 4;
      cleanup_running = false;
      c_proposals =
        Metrics.counter (Engine.metrics engine)
          (Printf.sprintf "node%d.proposals" id);
      c_decided =
        Metrics.counter (Engine.metrics engine)
          (Printf.sprintf "node%d.returns.decided" id);
      c_aborted =
        Metrics.counter (Engine.metrics engine)
          (Printf.sprintf "node%d.returns.aborted" id);
    }
  in
  Ssba_net.Link.set_handler link id (fun env -> handle_envelope t env);
  start_cleanup t;
  t

(* ----- the General role ------------------------------------------------ *)

type propose_error =
  | Too_soon  (* IG1: within Delta_0 of the previous initiation *)
  | Value_too_soon  (* IG2: within Delta_v of initiating the same value *)
  | Blocked  (* IG3: within Delta_reset of a noticed failure *)
  | Busy  (* own agreement instance still running *)
  | At_capacity  (* admission mode: session table full, no eviction *)

let string_of_propose_error = function
  | Too_soon -> "IG1: within Delta_0 of the previous initiation"
  | Value_too_soon -> "IG2: within Delta_v of initiating the same value"
  | Blocked -> "IG3: quiet period after a noticed failure"
  | Busy -> "previous agreement instance still active"
  | At_capacity -> "session table at capacity (admission refused)"

(* IG3 watchdog: §4 declares an invocation failed when the General's own
   L4 / M4 / N4 did not complete within 2d / 3d / 4d of its invocation. We
   check 7d (local) after the proposal — enough for the self-addressed
   Initiator message plus the 4d N4 deadline — and impose the Delta_reset
   quiet period on failure. *)
let watch_own_invocation t ~logical =
  let d = t.params.Params.d in
  Engine.schedule_after t.engine
    ~delay:(Clock.real_of_local_duration t.clock (7.0 *. d))
    (fun () ->
      (* Resolve the session at fire time, not at proposal time: the report
         lives in the separation guard, which survives the session being
         collected and recreated in between. *)
      let ia = Ss_byz_agree.initiator_accept (instance t logical) in
      let rep = Initiator_accept.invocation_report ia in
      let within bound = function
        | Some at -> (
            match rep.Initiator_accept.invoked_at with
            | Some inv -> at -. inv <= bound *. d
            | None -> false)
        | None -> false
      in
      let ok =
        rep.Initiator_accept.invoked_at <> None
        && within 2.0 rep.Initiator_accept.l4_at
        && within 3.0 rep.Initiator_accept.m4_at
        && within 4.0 rep.Initiator_accept.n4_at
      in
      if not ok then begin
        let tau = local_time t in
        Hashtbl.replace t.blocked_until logical (tau +. t.params.Params.delta_reset);
        Engine.record t.engine ~node:t.id (Trace.Ig3_failure { g = logical })
      end)

let propose ?(channel = 0) t v =
  if channel < 0 || channel >= t.channels then
    invalid_arg "Node.propose: channel out of range";
  let logical = (channel * t.params.Params.n) + t.id in
  let tau = local_time t in
  let ig1_violation =
    match Hashtbl.find_opt t.last_init_at logical with
    | Some s -> tau -. s < t.params.Params.delta_0
    | None -> false
  in
  let ig2_violation =
    match Hashtbl.find_opt t.last_value_init_at (logical, v) with
    | Some s -> tau -. s < t.params.Params.delta_v
    | None -> false
  in
  let blocked =
    match Hashtbl.find_opt t.blocked_until logical with
    | Some until -> tau < until
    | None -> false
  in
  if blocked then Error Blocked
  else if ig1_violation then Error Too_soon
  else if ig2_violation then Error Value_too_soon
  else
    match
      if t.admission then instance_admit t logical
      else Some (instance t logical)
    with
  | None -> Error At_capacity
  | Some inst when Ss_byz_agree.state inst <> Ss_byz_agree.Idle -> Error Busy
  | Some _ -> begin
    (* Before initiating, the General removes all previously received
       messages associated with previous invocations with him as General. *)
    Initiator_accept.forget_messages
      (Ss_byz_agree.initiator_accept (instance t logical));
    Hashtbl.replace t.last_init_at logical tau;
    Hashtbl.replace t.last_value_init_at (logical, v) tau;
    Metrics.incr t.c_proposals;
    Engine.record t.engine ~node:t.id (Trace.Propose { g = logical; v });
    (* Block Q0: send (Initiator, G, m) to all — the General invokes via its
       own self-addressed copy, like every other node. *)
    Ssba_net.Link.broadcast t.link ~src:t.id (Initiator { g = logical; v });
    watch_own_invocation t ~logical;
    Ok ()
  end

(* Canonical whole-node state fingerprint for the model checker's visited
   set: sessions (with the lifecycle bookkeeping that drives eviction),
   separation guards, General-side rate-limiting state and the return
   history, every table in sorted key order. The local clock reading is not
   included — the checker runs perfect clocks and appends the engine time
   itself. *)
let fingerprint buf t =
  let add = Buffer.add_string and int = Fp_text.int and float = Fp_text.float in
  add buf "n"; int buf t.id; add buf "{";
  let sessions = ref [] in
  Session_table.iter_detail t.instances
    (fun ~g ~anchor ~active ~stamp inst ->
      sessions := (g, anchor, active, stamp, inst) :: !sessions);
  List.iter
    (fun (g, anchor, active, stamp, inst) ->
      add buf "sess"; int buf g; add buf "[";
      (match anchor with None -> add buf "-" | Some a -> float buf a);
      add buf ";"; float buf active; add buf ";"; int buf stamp; add buf "]=";
      Ss_byz_agree.fingerprint buf inst;
      Buffer.add_char buf ';')
    (List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> compare a b) !sessions);
  let sorted tbl =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  Array.iteri
    (fun g -> function
      | None -> ()
      | Some sep ->
          add buf "guard"; int buf g; add buf "=";
          Separation.fingerprint buf sep;
          Buffer.add_char buf ';')
    t.guards;
  List.iter
    (fun (g, s) -> add buf "ig1:"; int buf g; add buf "="; float buf s; add buf ";")
    (sorted t.last_init_at);
  List.iter
    (fun ((g, v), s) ->
      add buf "ig2:"; int buf g; add buf "/"; add buf v; add buf "="; float buf s;
      add buf ";")
    (sorted t.last_value_init_at);
  List.iter
    (fun (g, s) -> add buf "ig3:"; int buf g; add buf "="; float buf s; add buf ";")
    (sorted t.blocked_until);
  List.iter
    (fun (r : return_info) ->
      add buf "ret:"; int buf r.g; add buf "/";
      add buf (match r.outcome with Decided v -> v | Aborted -> "!");
      add buf "@"; float buf r.rt_ret; add buf ";")
    t.returns;
  Buffer.add_char buf '}'

(* ----- fault injection -------------------------------------------------- *)

(* Corrupt every existing instance, and conjure instances for two
   additional random Generals so that pre-existing garbage about agreements
   nobody started is also represented. *)
let scramble rng ~values t =
  let n = t.params.Params.n in
  for _ = 1 to 2 do
    ignore (instance t (Ssba_sim.Rng.int rng (n * t.channels)))
  done;
  (* Corrupt the sessions *and* the table's own keys/activity times; the
     table's capacity and occupancy are structural and survive. *)
  let tau = local_time t in
  let span = 2.0 *. t.params.Params.delta_rmv in
  Session_table.scramble rng
    ~rtime:(fun () ->
      tau +. Ssba_sim.Rng.float_in_range rng ~lo:(-.span) ~hi:t.params.Params.delta_agr)
    ~corrupt:(fun inst -> Ss_byz_agree.scramble rng ~values inst)
    t.instances;
  (* The General-side bookkeeping is state like any other. *)
  if Ssba_sim.Rng.bool rng then
    Hashtbl.replace t.last_init_at
      (Ssba_sim.Rng.int rng (n * t.channels))
      (tau
      +. Ssba_sim.Rng.float_in_range rng ~lo:(-2.0 *. t.params.Params.delta_v)
           ~hi:t.params.Params.delta_0);
  if Ssba_sim.Rng.bool rng then
    Hashtbl.replace t.blocked_until
      (Ssba_sim.Rng.int rng (n * t.channels))
      (tau +. Ssba_sim.Rng.float_in_range rng ~lo:(-1.0) ~hi:t.params.Params.delta_reset)

(* A reformed node: a previously Byzantine node that starts running the
   correct protocol mid-run — the classic self-stabilizing rejoin. [create_on]
   takes over the link handler and starts the cleanup task; the scramble then
   installs arbitrary protocol and General-side state (§6's convergence
   argument assumes nothing better), so the paper only owes coherence-scoped
   guarantees [Delta_stb] after the reform point. *)
let reform ?channels ?session_capacity ?admission ~rng ~values ~id ~params
    ~clock ~engine ~link () =
  let t =
    create_on ?channels ?session_capacity ?admission ~id ~params ~clock
      ~engine ~link ()
  in
  scramble rng ~values t;
  t
