(* Property oracles over one fuzzed run.

   Soundness is the whole game: a fuzzer whose oracle cries wolf under legal
   schedules is useless, so each check is gated on the scenario class it is
   actually promised for. Agreement (pairwise, anchored) holds from the
   re-stabilization point after arbitrary transient faults; the primitive
   invariants and the timeliness deadlines additionally assume the network
   stayed coherent, so they only run on event-free specs. Byzantine casts up
   to f never gate anything — that is the permanent fault budget.

   The transport moves the line: persistent link faults (Loss/Duplicate/
   Reorder) under a transport-carrying spec are *not* disruptions — the
   transport's contract is to re-establish the bounded-delay channel at
   delta_eff, so Validity/Termination/Timeliness are checked as if the links
   were clean. Without a transport those same faults leave the paper's model
   permanently: nothing beyond conservation can soundly be demanded, so the
   other oracles are skipped — unless [assume_coherent] forces them back on,
   which is how the regression suite demonstrates that the un-transported
   protocol really does lose Termination over lossy links. *)

module H = Ssba_harness
module P = Ssba_core.Params
module S = H.Scenario
module Svc = Ssba_service.Service
module W = Ssba_service.Workload
module Tr = Ssba_sim.Trace
module Ty = Ssba_core.Types

type failure = { oracle : string; detail : string }
type report = { digest : string; failures : failure list }

type config = { skew_deadline_scale : float; assume_coherent : bool }

let default_config = { skew_deadline_scale = 1.0; assume_coherent = false }

let failed r = r.failures <> []
let pp_failure ppf f = Fmt.pf ppf "[%s] %s" f.oracle f.detail

(* Match an accepted proposal to its episode: same General, first return
   within the termination window of the initiation. *)
let episode_for episodes (p : S.proposal) ~params =
  let lo = p.S.at -. params.P.d in
  let hi = p.S.at +. params.P.delta_agr +. (8.0 *. params.P.d) in
  List.find_opt
    (fun (e : H.Metrics.episode) ->
      e.H.Metrics.g = p.S.g
      &&
      let t = H.Metrics.first_return e in
      t >= lo && t <= hi)
    episodes

let run ?(config = default_config) spec =
  let params = Spec.params spec in
  let d = params.P.d in
  let sc = Spec.to_scenario spec in
  (* Service specs run with the driver attached: the workload generates the
     proposals at runtime (they land in [proposal_results] like scheduled
     ones) and the service report feeds the overload checks below. *)
  let svc = ref None in
  let res =
    match spec.Spec.service with
    | None -> H.Runner.run sc
    | Some w ->
        H.Runner.run
          ~on_driver:(fun drv ->
            svc := Some (Svc.attach ~seed:spec.Spec.seed w drv))
          sc
  in
  let failures = ref [] in
  let add oracle fmt =
    Printf.ksprintf (fun detail -> failures := { oracle; detail } :: !failures) fmt
  in
  (* Conservation: exact accounting identity, scenario class irrelevant. *)
  let conservation = H.Checks.network_conservation res in
  if not conservation.H.Checks.ok then
    add "conservation" "attempts=%d but delivered+dropped+in_flight=%.0f"
      (res.H.Runner.messages_sent + res.H.Runner.messages_duplicated)
      conservation.H.Checks.measured;
  (* Agreement, per coherent interval: the paper owes it inside every
     maximal coherent interval from Delta_stb after the interval opens (from
     its start when nothing preceded it). This subsumes the old single
     "after the last disruption" check — incoherent tails (unrecovered
     crashes, unmasked persistent link faults) simply contribute no interval
     — and additionally catches violations in early coherent windows that a
     last-disruption-only cutoff would skate past. *)
  let reports =
    if config.assume_coherent then [] else H.Checks.recovery_report res
  in
  if config.assume_coherent then
    List.iter
      (fun v -> add "agreement" "%s" v)
      (H.Checks.pairwise_agreement ~after:(H.Checks.stabilized_after sc) res)
  else
    List.iteri
      (fun idx (r : H.Checks.episode_report) ->
        List.iter
          (fun v ->
            add "agreement" "interval %d [%g, %g): %s" idx
              r.H.Checks.interval.H.Coherence.t_start
              r.H.Checks.interval.H.Coherence.t_end v)
          r.H.Checks.violations;
        match r.H.Checks.recovery_time with
        | Some rt when rt > params.P.delta_stb *. (1.0 +. 1e-9) ->
            add "recovery-time"
              "interval %d: measured stabilization %.3fs exceeds Delta_stb %.3fs"
              idx rt params.P.delta_stb
        | Some _ | None -> ())
      reports;
  (* "Reliable" specs — nothing ever invalidated the channel abstraction:
     calm, or every event is a transport-masked link fault. Validity,
     Termination and the decision-skew deadline are promised over the whole
     run there. Under disruptions, the same per-proposal checks apply to
     proposals whose full termination window fits inside the checked part of
     one coherent interval — that is exactly where §6.1 re-entitles them. *)
  let reliable =
    config.assume_coherent
    || not (List.exists (S.disruptive sc) spec.Spec.events)
  in
  let window = params.P.delta_agr +. (8.0 *. d) in
  (* The correct set a proposal's checks should use: the interval's cast
     (pre-Reform windows must not demand returns from a node that only
     rejoined later). [None] when the proposal is not entitled. *)
  let entitlement (p : S.proposal) =
    if p.S.at +. window > spec.Spec.horizon then None
    else if reliable then Some res.H.Runner.correct
    else
      List.find_map
        (fun (r : H.Checks.episode_report) ->
          let iv = r.H.Checks.interval in
          if
            p.S.at >= r.H.Checks.checked_from
            && p.S.at +. window <= iv.H.Coherence.t_end
          then Some iv.H.Coherence.correct
          else None)
        reports
  in
  (* Invariant monitors stay calm-only: they watch per-message causality at
     a granularity where even masked link faults (residual loss, late
     retransmits) are observable without being protocol violations. *)
  if spec.Spec.events = [] then
    List.iter (fun v -> add "invariants" "%s" v) (H.Invariants.check res);
  let episodes = H.Metrics.episodes res in
  (* Service jobs carry unique per-attempt values, so their checks match
     returns by value. The episode machinery must NOT be used for them:
     episodes cluster returns per General with gap [Delta_agr], but the
     service re-initiates the same General as fast as [Delta_0]
     (< Delta_agr), so back-to-back jobs merge into one episode and the
     per-episode validity check would cry wolf over the (intentionally)
     divergent job values. *)
  let svc_decisions : (string * int, float) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (r : Ty.return_info) ->
      match r.Ty.outcome with
      | Ty.Decided v when Svc.is_service_value v ->
          (* returns are in rt order; keep the first per (value, node) *)
          if not (Hashtbl.mem svc_decisions (v, r.Ty.node)) then
            Hashtbl.add svc_decisions (v, r.Ty.node) r.Ty.rt_ret
      | _ -> ())
    res.H.Runner.returns;
  (* Bounded memory's sacrifice: when a full table evicts G's live session
     at some node, that node loses the job — by design, not by bug. The
     termination check excuses exactly those (node, G) pairs, per eviction
     time; agreement and the service-mode invariants still apply. *)
  let svc_evictions : (int * int, float list) Hashtbl.t = Hashtbl.create 64 in
  if spec.Spec.service <> None then
    List.iter
      (fun (e : Tr.entry) ->
        match e.Tr.event with
        | Tr.Session_evict { g } ->
            let key = (e.Tr.node, g) in
            let ts =
              Option.value ~default:[] (Hashtbl.find_opt svc_evictions key)
            in
            Hashtbl.replace svc_evictions key (e.Tr.time :: ts)
        | _ -> ())
      (Tr.to_list res.H.Runner.trace);
  let evicted_in_window ~g ~at node =
    match Hashtbl.find_opt svc_evictions (node, g) with
    | None -> false
    | Some ts ->
        List.exists (fun t -> t >= at -. d && t <= at +. window) ts
  in
  List.iter
    (fun ((p : S.proposal), outcome) ->
      match outcome with
      | H.Runner.Refused _ | H.Runner.No_general -> ()
      | H.Runner.Accepted when Svc.is_service_value p.S.v -> (
          match entitlement p with
          | None -> ()
          | Some correct ->
              let times =
                List.map
                  (fun node ->
                    (node, Hashtbl.find_opt svc_decisions (p.S.v, node)))
                  correct
              in
              let missing, decided =
                List.partition (fun (_, t) -> t = None) times
              in
              let excused node = evicted_in_window ~g:p.S.g ~at:p.S.at node in
              let missing =
                List.filter (fun (node, _) -> not (excused node)) missing
              in
              let late =
                List.filter
                  (fun (node, t) ->
                    match t with
                    | Some rt ->
                        (rt < p.S.at -. d || rt > p.S.at +. window)
                        && not (excused node)
                    | None -> false)
                  decided
              in
              if missing <> [] || late <> [] then
                add "service-termination"
                  "G=%d job %S at %g: %d node(s) missing, %d late" p.S.g
                  p.S.v p.S.at (List.length missing) (List.length late)
              else begin
                (* skew over on-time decisions only: an excused node that
                   decided late (evicted, then recreated by a retransmit)
                   is not held to the deadline either *)
                let ts =
                  List.filter
                    (fun rt -> rt >= p.S.at -. d && rt <= p.S.at +. window)
                    (List.filter_map snd decided)
                in
                let lo = List.fold_left Float.min infinity ts in
                let hi = List.fold_left Float.max neg_infinity ts in
                let bound = 3.0 *. d *. config.skew_deadline_scale in
                if hi -. lo > bound +. 1e-12 then
                  add "timeliness-1a"
                    "G=%d service decision skew %.3fd exceeds deadline %.3fd"
                    p.S.g
                    ((hi -. lo) /. d)
                    (bound /. d)
              end)
      | H.Runner.Accepted -> (
          match entitlement p with
          | None -> ()
          | Some correct -> (
              match episode_for episodes p ~params with
              | None ->
                  add "termination"
                    "G=%d accepted %S at %g but no correct node returned" p.S.g
                    p.S.v p.S.at
              | Some e ->
                  if not (H.Checks.validity ~correct ~v:p.S.v e) then
                    add "validity"
                      "G=%d proposed %S at %g: not every correct node decided it"
                      p.S.g p.S.v p.S.at;
                  let skew = H.Metrics.decision_skew res e in
                  let bound = 3.0 *. d *. config.skew_deadline_scale in
                  if skew > bound +. 1e-12 then
                    add "timeliness-1a"
                      "G=%d decision skew %.3fd exceeds deadline %.3fd" p.S.g
                      (skew /. d) (bound /. d))))
    res.H.Runner.proposal_results;
  (* Service-mode checks, over the typed trace: the queue bound is a hard
     invariant, shedding is legal only under admission pressure, and every
     degraded episode must drain back to normal before the horizon (the
     generator leaves 1.5 Delta_stb of slack after arrivals stop to make
     that provable). *)
  (match spec.Spec.service with
  | None -> ()
  | Some w ->
      let degraded = ref false in
      let depth = ref 0 in
      List.iter
        (fun (e : Tr.entry) ->
          match e.Tr.event with
          | Tr.Service_mode { degraded = dg; _ } -> degraded := dg
          | Tr.Service_queue { depth = q; _ } ->
              depth := q;
              if q > w.W.queue_cap then
                add "service-queue"
                  "retry queue depth %d exceeds cap %d at %g" q w.W.queue_cap
                  e.Tr.time
          | Tr.Service_shed { reason; g } -> (
              match reason with
              | "degraded" | "watermark" ->
                  if not !degraded then
                    add "service-shed"
                      "shed(%s) of G=%d at %g outside degraded mode" reason g
                      e.Tr.time
              | _ ->
                  if !depth < w.W.queue_cap then
                    add "service-shed"
                      "shed(queue-full) of G=%d at %g with queue at %d/%d" g
                      e.Tr.time !depth w.W.queue_cap)
          | _ -> ())
        (Tr.to_list res.H.Runner.trace);
      if !degraded then
        add "service-drain"
          "degraded mode still engaged at the horizon (no drain)";
      (* cross-check the trace walk against the driver's own bookkeeping *)
      match !svc with
      | Some s ->
          let r = Svc.report s in
          if r.Svc.unresolved_degraded > 0 then
            add "service-drain" "%d degraded episode(s) never closed"
              r.Svc.unresolved_degraded
      | None -> ());
  (* The transport's silent losses go into the story of a failing run: a
     frame overwritten unacked is a broken channel, not a protocol fault. *)
  let failures =
    match (!failures, res.H.Runner.transport_evicted) with
    | [], _ | _, 0 -> List.rev !failures
    | fs, ev ->
        List.rev_map
          (fun f ->
            let detail =
              Printf.sprintf "%s (transport evicted %d unacked frames)" f.detail ev
            in
            { f with detail })
          fs
  in
  (res, { digest = H.Checks.result_digest res; failures })
