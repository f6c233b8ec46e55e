(* The four workloads. Each one is prepared from its seed (input generation
   plus a warm-up call that also yields the reference outputs), then offers
   an untraced round of API calls — the same calls the CLIs make — and a
   traced op that splits the work across the layers from outside the
   program.

   Why these four (see README.md for the layer-to-metric map):
   - agree-n61: one correct-General agreement at n = 61, closed loop. The
     Θ(n²) fan-out puts the engine queue, the network arena and the
     per-delivery handlers on the critical path; one session, no transport.
   - service-soak: thousands of short overlapping sessions at n = 4. The
     node layer in breadth (session table, separation ledger, cleanup over
     live sessions, admission) while per-message fan-out stays small.
   - fuzz-lossy: many small generated scenarios, each paying for world
     construction, transport framing and retransmits, and the oracle.
   - mc-smoke: the only workload that reaches lib/mc (stateless
     re-execution, fingerprinting, the visited set).

   A round is the same work every time; main.ml times each one against the
   reference kernel run just before and just after it. *)

open Ssba_core.Types
open Perfbench
module P = Ssba_core.Params
module Sc = Ssba_harness.Scenario
module R = Ssba_harness.Runner
module H = Ssba_harness
module F = Ssba_fuzz
module Svc = Ssba_service.Service
module W = Ssba_service.Workload
module Mc = Ssba_mc.Mc

type round = {
  calls_ms : float array;  (** wall ms of each API call of the round, in order *)
  attempted : int;  (** ops attempted *)
  failed : int;  (** ops failed *)
  problems : string list;  (** failed output checks *)
}

type instance = {
  round : unit -> round;  (** one untraced round *)
  decide_d : float * float;  (** simulated decision latency p50, p99, in d *)
  traced_target : unit -> int option;
      (** [Some k]: exactly [k] traced ops complete the mirror check;
          [None]: trace for the rest of the run *)
  traced_call : unit -> string list;
      (** one traced op inside an open "op" span; mirror-check problems *)
  layers : ops:int -> (string * float) list;
      (** per-layer metrics over [ops] traced ops *)
}

let now_ms () = float_of_int (Clock.now_ns ()) /. 1e6
let div a b = if b = 0.0 then 0.0 else a /. b
let fdiv a b = div (float_of_int a) (float_of_int b)

(* Nearest-rank p50/p99 of decision latencies, in units of d. *)
let decide_of ~d lats =
  let a = Array.of_list (List.map (fun l -> l /. d) lats) in
  (Stats.percentile 0.5 a, Stats.percentile 0.99 a)

(* Fold one op's session-table counters into [acc]: peak live (max), then
   collected, evicted and rejected-at-capacity (sums). *)
let add_sessions acc nodes =
  acc :=
    List.fold_left
      (fun (peak, gced, evicted, rejected) (_, nd) ->
        let s = Ssba_core.Node.session_stats nd in
        Ssba_core.Session_table.
          ( max peak s.peak_live,
            gced + s.gced,
            evicted + s.evicted,
            rejected + s.rejected_at_capacity ))
      !acc nodes

(* Per-layer numbers of the traced [World] replica, from the span totals. *)
let world_layers sp ~ops ~events ~pool_slots ~sessions:(peak, gced, evicted, rejected) =
  let tot = Span.totals sp in
  let op = tot "op" and run = tot "engine.run" and send = tot "net.send" in
  let dl = tot "node.deliver" and pr = tot "node.propose" in
  let ret = tot "service.on_return" and setup = tot "runner.setup" in
  let per x = fdiv x ops in
  let op_ns = float_of_int op.Span.t_ns in
  [
    ("engine.events", per events);
    ("engine.self_ns_per_event", fdiv run.Span.t_self events);
    ("engine.self_share", div (float_of_int run.Span.t_self) op_ns);
    ("net.send_calls", per send.Span.t_calls);
    ("net.deliveries", per dl.Span.t_calls);
    ("net.send_ns_per_call", fdiv send.Span.t_ns send.Span.t_calls);
    ("net.send_share", div (float_of_int send.Span.t_ns) op_ns);
    ("net.pool_slots", per pool_slots);
    ("node.deliver_self_ns", fdiv dl.Span.t_self dl.Span.t_calls);
    ("node.deliver_share", div (float_of_int dl.Span.t_self) op_ns);
    ("node.deliver_words", fdiv dl.Span.t_words dl.Span.t_calls);
    ("node.propose_ns", fdiv pr.Span.t_ns pr.Span.t_calls);
    ("node.sessions_peak_live", float_of_int peak);
    ("node.sessions_gced", per gced);
    ("node.sessions_evicted", per evicted);
    ("node.rejected_at_capacity", per rejected);
    ("service.on_return_ns", fdiv ret.Span.t_ns ret.Span.t_calls);
    ("runner.setup_ms", per setup.Span.t_ns /. 1e6);
    ("runner.run_ms", per run.Span.t_ns /. 1e6);
  ]

let mirror_problems ~what ~events ~ref_events ~returns ~ref_returns =
  (if events <> ref_events then
     [ Printf.sprintf "%s: traced world ran %d events, Runner.run %d" what events ref_events ]
   else [])
  @
  if returns <> ref_returns then
    [ Printf.sprintf "%s: traced world's returns differ from Runner.run's" what ]
  else []

(* ----- agree-n61 --------------------------------------------------------- *)

(* The E11 scale scenario: one correct General proposes "m" at t0. *)
let agree_n = 61
let agree_t0 = 0.05

let agree_scenario ~seed =
  let params = P.default agree_n in
  Sc.default ~name:"e11" ~seed
    ~proposals:[ { Sc.g = 0; v = "m"; at = agree_t0 } ]
    ~horizon:(agree_t0 +. (2.0 *. params.P.delta_agr))
    params

(* Every node decides "m" for General 0, and nothing else returns. *)
let agree_problems returns =
  let deciders =
    List.sort_uniq compare
      (List.filter_map
         (fun r -> match r.outcome with Decided "m" when r.g = 0 -> Some r.node | _ -> None)
         returns)
  in
  if List.length deciders = agree_n && List.length returns = agree_n then []
  else
    [
      Printf.sprintf "agree-n61: %d of %d nodes decided \"m\" (%d returns)"
        (List.length deciders) agree_n (List.length returns);
    ]

let agree sp ~seed =
  let sc = agree_scenario ~seed in
  let reference = R.run sc in
  let ref_events = reference.R.engine_stats.Ssba_sim.Engine.events_processed in
  let ref_returns = reference.R.returns in
  let d = sc.Sc.params.P.d in
  let a = World.accs sp in
  let events = ref 0 and slots = ref 0 and sess = ref (0, 0, 0, 0) in
  {
    round =
      (fun () ->
        let t0 = now_ms () in
        let res = R.run sc in
        let ms = now_ms () -. t0 in
        let problems = agree_problems res.R.returns in
        let failed = if problems = [] then 0 else 1 in
        { calls_ms = [| ms |]; attempted = 1; failed; problems });
    decide_d =
      decide_of ~d (List.map (fun r -> r.rt_ret -. agree_t0) ref_returns);
    traced_target = (fun () -> None);
    traced_call =
      (fun () ->
        let w = World.build sp a sc in
        let st = World.run sp a w in
        let ev = st.Ssba_sim.Engine.events_processed in
        events := !events + ev;
        slots := !slots + Ssba_net.Network.pool_slots_allocated w.World.net;
        add_sessions sess w.World.nodes;
        mirror_problems ~what:"agree-n61" ~events:ev ~ref_events
          ~returns:(World.returns w) ~ref_returns);
    layers =
      (fun ~ops -> world_layers sp ~ops ~events:!events ~pool_slots:!slots ~sessions:!sess);
  }

(* ----- service-soak ------------------------------------------------------ *)

(* E17's calm soak, cut to 30 simulated seconds and without the pulse layer
   (out of scope here): n = 4, 8 channels, Poisson 75 jobs/s, admission on. *)
let soak_setup ~seed =
  let params = P.default 4 in
  let w =
    {
      W.default with
      W.arrivals = W.Poisson { rate = 75.0 };
      start_at = 0.05;
      stop_at = 30.0;
      channels = 8;
      retry_base = 4.0 *. params.P.d;
    }
  in
  (w, Ssba_service.E17.scenario ~seed ~params w)

let soak_problems (r : Svc.report) =
  let bad cond fmt = Printf.ksprintf (fun s -> if cond then [ "service-soak: " ^ s ] else []) fmt in
  bad (r.Svc.decided <> r.Svc.admitted) "decided %d <> admitted %d" r.Svc.decided
    r.Svc.admitted
  @ bad (r.Svc.timed_out <> 0) "%d timed out" r.Svc.timed_out
  @ bad (r.Svc.gave_up <> 0) "%d gave up" r.Svc.gave_up
  @ bad (r.Svc.unresolved_degraded <> 0) "%d unresolved degraded episode(s)"
      r.Svc.unresolved_degraded

let soak sp ~seed =
  let w, sc = soak_setup ~seed in
  let reference, ref_report = Svc.run ~seed w sc in
  let ref_events = reference.R.engine_stats.Ssba_sim.Engine.events_processed in
  let ref_returns = reference.R.returns in
  let d = sc.Sc.params.P.d in
  let a = World.accs sp in
  let events = ref 0 and slots = ref 0 and sess = ref (0, 0, 0, 0) in
  let shed = ref 0 and retries = ref 0 and peak_frac = ref 0.0 in
  {
    round =
      (fun () ->
        let t0 = now_ms () in
        let _, r = Svc.run ~seed w sc in
        let ms = now_ms () -. t0 in
        {
          calls_ms = [| ms |];
          attempted = r.Svc.arrivals;
          failed = r.Svc.timed_out + r.Svc.gave_up + r.Svc.shed;
          problems = soak_problems r;
        });
    decide_d = (ref_report.Svc.p50_latency /. d, ref_report.Svc.p99_latency /. d);
    traced_target = (fun () -> None);
    traced_call =
      (fun () ->
        let svc = ref None in
        let wd =
          World.build
            ~on_driver:(fun drv -> svc := Some (Svc.attach ~seed w drv))
            sp a sc
        in
        let st = World.run sp a wd in
        let r = Svc.report (Option.get !svc) in
        let ev = st.Ssba_sim.Engine.events_processed in
        events := !events + ev;
        slots := !slots + Ssba_net.Network.pool_slots_allocated wd.World.net;
        add_sessions sess wd.World.nodes;
        shed := !shed + r.Svc.shed;
        retries := !retries + r.Svc.retries;
        peak_frac := Float.max !peak_frac r.Svc.peak_live_frac;
        mirror_problems ~what:"service-soak" ~events:ev ~ref_events
          ~returns:(World.returns wd) ~ref_returns
        @
        if r.Svc.decided <> ref_report.Svc.decided then
          [
            Printf.sprintf "service-soak: traced world decided %d, Service.run %d"
              r.Svc.decided ref_report.Svc.decided;
          ]
        else []);
    layers =
      (fun ~ops ->
        world_layers sp ~ops ~events:!events ~pool_slots:!slots ~sessions:!sess
        @ [
            ("service.shed", fdiv !shed ops);
            ("service.retries", fdiv !retries ops);
            ("service.peak_live_frac", !peak_frac);
          ]);
  }

(* ----- fuzz-lossy -------------------------------------------------------- *)

(* One untraced round is a serial [Campaign.run] of the first [pass]
   scenarios of the pinned lossy corpus (campaign seed 42): each scenario is
   one op and one call, timed between progress callbacks. The workload
   ignores the benchmark's seed. Campaigns at other seeds find real oracle
   failures within a few thousand scenarios (seed 12 at iteration 1423), and
   a benchmark op must not fail; seed 42 is clean up to iteration 5273 (5274
   fails), and a pass stays well inside that prefix.

   The warm-up judges the first [warm] scenarios through [Oracle.run]; the
   decision latencies come from those. *)
let campaign_seed = 42
let pass = 100
let warm = 100

(* Decision latencies of accepted scheduled proposals: every decided return
   of the matching episode (same General, first return within the
   termination window), as [Oracle] matches them. They are counted in the d
   of the bare network ([P.default]): a lossy spec's own d is stretched by
   the transport's worst-case retransmission cascade (12 s against about
   1 ms), which would make the unit differ from spec to spec. *)
let scenario_latencies (spec : F.Spec.t) (res : R.result) =
  let params = res.R.scenario.Sc.params in
  let base_d = (P.default ~f:spec.F.Spec.f spec.F.Spec.n).P.d in
  let episodes = H.Metrics.episodes res in
  List.concat_map
    (fun ((p : Sc.proposal), outcome) ->
      match outcome with
      | R.Accepted -> (
          let lo = p.Sc.at -. params.P.d in
          let hi = p.Sc.at +. params.P.delta_agr +. (8.0 *. params.P.d) in
          match
            List.find_opt
              (fun (e : H.Metrics.episode) ->
                e.H.Metrics.g = p.Sc.g
                &&
                let t = H.Metrics.first_return e in
                t >= lo && t <= hi)
              episodes
          with
          | None -> []
          | Some e ->
              List.map
                (fun ((r : return_info), _) -> (r.rt_ret -. p.Sc.at) /. base_d)
                (H.Metrics.decided e))
      | R.Refused _ | R.No_general -> [])
    res.R.proposal_results

let fuzz sp ~seed:_ =
  let gen = F.Gen.lossy_config in
  let lats =
    List.concat
      (List.init warm (fun i ->
           let spec = F.Campaign.spec_of_iteration ~seed:campaign_seed ~gen i in
           let res, report = F.Oracle.run spec in
           if F.Oracle.failed report then
             failwith (Printf.sprintf "fuzz-lossy: warm-up scenario %d failed its oracles" i);
           scenario_latencies spec res))
  in
  (* the first untraced round's corpus digest and per-scenario digests:
     every later round must repeat the corpus digest, and the traced ops
     replay exactly those scenarios *)
  let corpus = ref "" and untraced_digests = ref [||] in
  let gen_a = Span.acc ~keep:true sp "fuzz.gen" in
  let compile_a = Span.acc ~keep:true sp "fuzz.compile" in
  let run_a = Span.acc ~keep:true sp "fuzz.run" and setup_a = Span.acc sp "runner.setup" in
  let exec_a = Span.acc sp "runner.run" and judge_a = Span.acc ~keep:true sp "fuzz.judge" in
  let recovery_a = Span.acc sp "judge.recovery_report" in
  let inv_a = Span.acc sp "judge.invariants" and digest_a = Span.acc sp "judge.digest" in
  let next = ref 0 and traced_digests = ref [] in
  let events = ref 0 and delivered = ref 0 and sess = ref (0, 0, 0, 0) in
  let retrans = ref 0 and data = ref 0 and dups = ref 0 and expired = ref 0 in
  let timed acc f = World.timed sp acc f in
  {
    round =
      (fun () ->
        let config =
          {
            F.Campaign.default_config with
            F.Campaign.seed = campaign_seed;
            runs = pass;
            gen;
          }
        in
        let calls = ref [] and failed = ref 0 and digests = ref [] and last = ref (now_ms ()) in
        let progress _ _ (report : F.Oracle.report) =
          let t = now_ms () in
          digests := report.F.Oracle.digest :: !digests;
          if F.Oracle.failed report then incr failed;
          calls := (t -. !last) :: !calls;
          last := now_ms ()
        in
        let s = F.Campaign.run ~progress config in
        let digests = Array.of_list (List.rev !digests) in
        if !corpus = "" then begin
          corpus := s.F.Campaign.corpus_digest;
          untraced_digests := digests
        end;
        let problems =
          (if s.F.Campaign.failed <> [] then
             [ Printf.sprintf "fuzz-lossy: %d oracle failure(s)" (List.length s.F.Campaign.failed) ]
           else [])
          @ (if F.Campaign.digest_of_digests digests <> s.F.Campaign.corpus_digest then
               [ "fuzz-lossy: per-scenario digests do not fold to the corpus digest" ]
             else [])
          @
          if s.F.Campaign.corpus_digest <> !corpus then
            [ "fuzz-lossy: a round's corpus digest differs from the first round's" ]
          else []
        in
        let calls_ms = Array.of_list (List.rev !calls) in
        { calls_ms; attempted = Array.length calls_ms; failed = !failed; problems });
    decide_d = decide_of ~d:1.0 lats;
    traced_target = (fun () -> Some (Array.length !untraced_digests));
    traced_call =
      (fun () ->
        let i = !next in
        incr next;
        let spec = timed gen_a (fun () -> F.Campaign.spec_of_iteration ~seed:campaign_seed ~gen i) in
        let sc = timed compile_a (fun () -> F.Spec.to_scenario spec) in
        (* [Runner.run] hands its driver hook over between world construction
           and [Engine.run], which splits the call into its two halves. *)
        let res =
          timed run_a (fun () ->
              Span.start sp setup_a;
              let res =
                R.run
                  ~on_driver:(fun drv ->
                    Span.stop sp;
                    Span.start sp exec_a;
                    Option.iter
                      (fun w -> ignore (Svc.attach ~seed:spec.F.Spec.seed w drv))
                      spec.F.Spec.service)
                  sc
              in
              Span.stop sp;
              res)
        in
        (* The judge functions [Oracle.run] composes, each on its own. *)
        let params = F.Spec.params spec in
        let digest =
          timed judge_a (fun () ->
              ignore (H.Checks.network_conservation res);
              ignore
                (timed recovery_a (fun () ->
                     H.Checks.recovery_report ~stb:params.P.delta_stb res));
              if spec.F.Spec.events = [] then
                ignore (timed inv_a (fun () -> H.Invariants.check res));
              ignore (H.Metrics.episodes res);
              timed digest_a (fun () -> H.Checks.result_digest res))
        in
        traced_digests := digest :: !traced_digests;
        events := !events + res.R.engine_stats.Ssba_sim.Engine.events_processed;
        delivered := !delivered + res.R.messages_delivered;
        add_sessions sess res.R.nodes;
        retrans := !retrans + res.R.transport_retransmits;
        dups := !dups + res.R.transport_dup_suppressed;
        expired := !expired + res.R.transport_expired;
        data :=
          !data
          + List.fold_left
              (fun acc (kind, k) -> if kind = "ack" then acc else acc + k)
              0 res.R.messages_by_kind;
        let n = Array.length !untraced_digests in
        if i >= n || digest <> !untraced_digests.(i) then
          [ Printf.sprintf "fuzz-lossy: traced scenario %d's digest differs from the untraced run's" i ]
        else if
          i = n - 1
          && F.Campaign.digest_of_digests (Array.of_list (List.rev !traced_digests)) <> !corpus
        then [ "fuzz-lossy: traced digests do not fold to the untraced corpus digest" ]
        else []);
    layers =
      (fun ~ops ->
        let tot = Span.totals sp in
        let ms name = fdiv (tot name).Span.t_ns ops /. 1e6 in
        let peak, gced, evicted, rejected = !sess in
        [
          ("engine.events", fdiv !events ops);
          ("net.deliveries", fdiv !delivered ops);
          ("node.sessions_peak_live", float_of_int peak);
          ("node.sessions_gced", fdiv gced ops);
          ("node.sessions_evicted", fdiv evicted ops);
          ("node.rejected_at_capacity", fdiv rejected ops);
          ("runner.setup_ms", ms "runner.setup");
          ("runner.run_ms", ms "runner.run");
          ("transport.retransmits", fdiv !retrans ops);
          ("transport.retransmit_ratio", fdiv !retrans !data);
          ("transport.dup_suppressed", fdiv !dups ops);
          ("transport.expired", fdiv !expired ops);
          ("fuzz.gen_ms", ms "fuzz.gen");
          ("fuzz.compile_ms", ms "fuzz.compile");
          ("fuzz.run_ms", ms "fuzz.run");
          ("fuzz.judge_ms", ms "fuzz.judge");
          ("fuzz.events_per_scenario", fdiv !events ops);
          ("judge.recovery_report_ms", ms "judge.recovery_report");
          ("judge.invariants_ms", ms "judge.invariants");
          ("judge.digest_ms", ms "judge.digest");
        ]);
  }

(* ----- mc-smoke ---------------------------------------------------------- *)

(* The smoke space, exhausted with partial-order reduction; the seed is
   ignored. The judged count is pinned: it only moves if the explored space
   or its reduction changes. *)
let mc_depth = 24
let mc_judged = 1088

let mc_problems (r : Mc.report) =
  let bad cond fmt = Printf.ksprintf (fun s -> if cond then [ "mc-smoke: " ^ s ] else []) fmt in
  bad (r.Mc.violations <> []) "%d violation(s)" (List.length r.Mc.violations)
  @ bad (r.Mc.splits <> []) "%d split(s)" (List.length r.Mc.splits)
  @ bad r.Mc.truncated "exploration truncated"
  @ bad (r.Mc.judged <> mc_judged) "judged %d, expected %d" r.Mc.judged mc_judged

let mc _sp ~seed:_ =
  let cfg = Ssba_mc.Config.smoke () in
  let explore () = Mc.explore cfg ~por:true ~depth:mc_depth in
  (match mc_problems (explore ()) with
  | [] -> ()
  | p :: _ -> failwith p);
  (* Decision latency of the default schedule (every choice at option 0). *)
  let d = cfg.Ssba_mc.Config.params.P.d in
  let lats =
    let run = Mc.run_vector cfg ~por:true [||] in
    List.concat_map
      (fun (p : Sc.proposal) ->
        List.filter_map
          (fun r ->
            match r.outcome with
            | Decided _ when r.g = p.Sc.g -> Some (r.rt_ret -. p.Sc.at)
            | _ -> None)
          run.Mc.returns)
      cfg.Ssba_mc.Config.proposals
  in
  let explored = ref 0 and judged = ref 0 and pruned = ref 0 and ms = ref 0.0 in
  {
    round =
      (fun () ->
        let t0 = now_ms () in
        let r = explore () in
        let ms = now_ms () -. t0 in
        {
          calls_ms = [| ms |];
          attempted = r.Mc.judged;
          failed = List.length r.Mc.violations + List.length r.Mc.splits;
          problems = mc_problems r;
        });
    decide_d = decide_of ~d lats;
    traced_target = (fun () -> None);
    traced_call =
      (fun () ->
        let t0 = now_ms () in
        let r = explore () in
        ms := !ms +. (now_ms () -. t0);
        explored := !explored + r.Mc.explored;
        judged := !judged + r.Mc.judged;
        pruned := !pruned + r.Mc.pruned;
        mc_problems r);
    layers =
      (fun ~ops ->
        [
          ("mc.explored", fdiv !explored ops);
          ("mc.judged", fdiv !judged ops);
          ("mc.pruned", fdiv !pruned ops);
          ("mc.judged_ratio", fdiv !judged !explored);
          ("mc.ms_per_run", div !ms (float_of_int !explored));
        ]);
  }

let find = function
  | "agree-n61" -> Some agree
  | "service-soak" -> Some soak
  | "fuzz-lossy" -> Some fuzz
  | "mc-smoke" -> Some mc
  | _ -> None
