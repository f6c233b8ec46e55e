(* Benchmark harness.

   Part 1 — Bechamel micro/meso benchmarks: one Test.make per experiment
   (E1..E8, DESIGN.md §4), each timing one representative simulation of that
   experiment's workload, plus substrate micro-benchmarks (engine, receive
   log, PRNG). Reported as nanoseconds per run via OLS on the monotonic
   clock.

   Part 2 — the full experiment tables (the paper's reproduced
   tables/figures), exactly what bin/ssba_experiments.exe prints, so one
   `dune exec bench/main.exe` regenerates both the timings and the results
   recorded in EXPERIMENTS.md. *)

open Bechamel
open Toolkit
module Core = Ssba_core
module H = Ssba_harness
module Params = Ssba_core.Params

(* ----- representative workloads, one per experiment --------------------- *)

let run_correct_general ~n ~seed () =
  let params = Params.default n in
  let sc =
    H.Scenario.default ~name:"bench" ~seed
      ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ]
      ~horizon:(0.05 +. (2.0 *. params.Params.delta_agr))
      params
  in
  let res = H.Runner.run sc in
  assert (List.length res.H.Runner.returns = n)

let e1 () = run_correct_general ~n:7 ~seed:1 ()

let e2 () =
  let params = Params.default 7 in
  let sc =
    H.Scenario.default ~name:"bench" ~seed:2
      ~cast:[ (0, Ssba_adversary.Catalog.Two_faced_general { v1 = "a"; v2 = "b"; at = 0.05 }) ]
      ~horizon:(0.05 +. (2.0 *. params.Params.delta_agr))
      params
  in
  ignore (H.Runner.run sc)

let e3_msgdriven () =
  let params = Params.default 7 in
  let sc =
    H.Scenario.default ~name:"bench" ~seed:3 ~clocks:H.Scenario.Perfect
      ~delay:(Ssba_net.Delay.fixed (0.05 *. params.Params.delta))
      ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ]
      ~horizon:(0.05 +. (2.0 *. params.Params.delta_agr))
      params
  in
  ignore (H.Runner.run sc)

let e3_tps_baseline () =
  let n = 7 in
  let params = Params.default n in
  let engine = Ssba_sim.Engine.create () in
  let net =
    Ssba_net.Network.create ~engine ~n
      ~delay:(Ssba_net.Delay.fixed (0.05 *. params.Params.delta))
      ~rng:(Ssba_sim.Rng.create 3) ()
  in
  let nodes =
    List.init n (fun id ->
        Ssba_baseline.Tps_agree.create ~id ~params ~clock:Ssba_sim.Clock.perfect
          ~engine ~net ~g:0 ~t_start:0.05)
  in
  Ssba_sim.Engine.schedule engine ~at:0.05 (fun () ->
      Ssba_baseline.Tps_agree.propose (List.hd nodes) "m");
  ignore (Ssba_sim.Engine.run ~until:1.0 engine)

let e4 () =
  let params = Params.default 7 in
  let t_p = params.Params.delta_stb in
  let sc =
    H.Scenario.default ~name:"bench" ~seed:4
      ~events:[ H.Scenario.Scramble { at = 0.0; values = [ "x"; "y" ]; net_garbage = 150 } ]
      ~proposals:[ { H.Scenario.g = 0; v = "m"; at = t_p } ]
      ~horizon:(t_p +. (2.0 *. params.Params.delta_agr))
      params
  in
  ignore (H.Runner.run sc)

let e5 () = run_correct_general ~n:13 ~seed:5 ()

let e6 () =
  let params = Params.default 10 in
  let eps = 0.1 *. params.Params.d in
  let st =
    Ssba_adversary.Round_stretcher.make ~params ~colluders:[ 0; 1 ] ~v:"evil"
      ~t0:0.05 ~eps ()
  in
  let sc =
    H.Scenario.default ~name:"bench" ~seed:6 ~clocks:H.Scenario.Perfect
      ~delay:(Ssba_net.Delay.fixed eps)
      ~cast:(Ssba_adversary.Round_stretcher.cast st)
      ~horizon:(0.05 +. (2.0 *. params.Params.delta_agr))
      params
  in
  ignore (H.Runner.run sc)

let e7 () = run_correct_general ~n:16 ~seed:7 ()

(* ----- transport workloads ---------------------------------------------- *)

(* One framed agreement over a link with persistent loss p; with transport,
   params are rebuilt at delta_eff. *)
let lossy_scenario ~n ~seed ~p ~transport () =
  let transport =
    if transport then
      Some (Ssba_transport.Transport.config ~rto:(3.0 *. (Params.default n).Params.delta) ())
    else None
  in
  let events = if p > 0.0 then [ H.Scenario.Loss { at = 0.0; p } ] else [] in
  let params = H.Scenario.effective_params ?transport n events in
  H.Scenario.default ~name:"bench-transport" ~seed ~events ?transport
    ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ]
    ~horizon:(0.05 +. (2.0 *. params.Params.delta_agr))
    params

let transport_clean () =
  ignore (H.Runner.run (lossy_scenario ~n:7 ~seed:9 ~p:0.0 ~transport:true ()))

let transport_lossy () =
  ignore (H.Runner.run (lossy_scenario ~n:7 ~seed:9 ~p:0.3 ~transport:true ()))

let e8 () =
  let n = 7 in
  let params = Params.default n in
  let engine = Ssba_sim.Engine.create () in
  let rng = Ssba_sim.Rng.create 8 in
  let net =
    Ssba_net.Network.create ~engine ~n
      ~delay:(Ssba_net.Delay.uniform ~lo:(0.1 *. params.Params.delta) ~hi:params.Params.delta)
      ~rng:(Ssba_sim.Rng.split rng) ()
  in
  let layers =
    List.init n (fun id ->
        let node =
          Core.Node.create ~id ~params ~clock:Ssba_sim.Clock.perfect ~engine ~net ()
        in
        Ssba_pulse.Pulse_sync.create ~node
          ~cycle_len:(1.2 *. Ssba_pulse.Pulse_sync.min_cycle params)
          ())
  in
  List.iter Ssba_pulse.Pulse_sync.start layers;
  ignore (Ssba_sim.Engine.run ~until:0.6 engine)

(* E12 workload: one crash-wave churn schedule (2 episodes) plus the
   coherence-timeline derivation and per-episode recovery report — the full
   cost of judging a churn run, not just simulating it. *)
let e12 () =
  let n = 7 in
  let params = Params.default n in
  let correct = List.init n Fun.id in
  let sched =
    H.Chaos.schedule ~episodes:2 H.Chaos.Crash_wave ~params ~correct
      ~byzantine:[]
  in
  let sc =
    H.Scenario.default ~name:"bench-churn" ~seed:12 ~events:sched.H.Chaos.events
      ~proposals:sched.H.Chaos.proposals ~horizon:sched.H.Chaos.horizon params
  in
  let res = H.Runner.run sc in
  ignore (H.Checks.recovery_report res)

(* 210 overlapping sessions per node over footnote-9 channels — the session
   table under real load, with its memory bound asserted per node. *)
let e13 () =
  let n = 7 in
  let k = 210 in
  let params = Params.default n in
  let t0 = 0.05 in
  let sc =
    H.Scenario.default ~name:"bench-sessions" ~seed:13
      ~proposals:
        (List.init k (fun i ->
             {
               H.Scenario.g = i;
               v = Printf.sprintf "m%d" i;
               at = t0 +. (float_of_int i /. float_of_int k *. params.Params.d);
             }))
      ~channels:((k + n - 1) / n)
      ~horizon:(t0 +. (2.0 *. params.Params.delta_agr))
      params
  in
  let res = H.Runner.run sc in
  List.iter
    (fun (_, nd) ->
      let s = Core.Node.session_stats nd in
      assert (s.Core.Session_table.peak_live <= s.Core.Session_table.capacity))
    res.H.Runner.nodes

(* ----- substrate micro-benchmarks --------------------------------------- *)

let engine_throughput () =
  let e = Ssba_sim.Engine.create () in
  for i = 0 to 999 do
    Ssba_sim.Engine.schedule e ~at:(float_of_int i *. 1e-6) (fun () -> ())
  done;
  ignore (Ssba_sim.Engine.run e)

let recv_log_queries () =
  let l = Core.Recv_log.create () in
  for s = 0 to 30 do
    Core.Recv_log.note l ~sender:s ~at:(float_of_int s *. 0.001)
  done;
  for _ = 0 to 99 do
    ignore (Core.Recv_log.count_in_window l ~now:0.031 ~width:0.002);
    ignore (Core.Recv_log.shortest_window l ~now:0.031 ~count:11)
  done

let rng_stream () =
  let r = Ssba_sim.Rng.create 1 in
  for _ = 0 to 9999 do
    ignore (Ssba_sim.Rng.float r 1.0)
  done

(* Typed trace events carry unformatted data, so a disabled trace should cost
   a branch and nothing else — compare these two rows to verify rendering is
   deferred (the ratio collapses if someone reintroduces eager sprintf). *)
let trace_record ~enabled () =
  let tr = Ssba_sim.Trace.create ~enabled () in
  for i = 0 to 9999 do
    Ssba_sim.Trace.record tr ~time:(float_of_int i *. 1e-6) ~node:(i land 7)
      (Ssba_sim.Trace.Send { src = i land 7; dst = (i + 1) land 7; msg = "echo" })
  done

let trace_disabled = trace_record ~enabled:false
let trace_enabled = trace_record ~enabled:true

let metrics_updates () =
  let m = Ssba_sim.Metrics.create () in
  let c = Ssba_sim.Metrics.counter m "bench.counter" in
  let g = Ssba_sim.Metrics.gauge m "bench.gauge" in
  for _ = 0 to 9999 do
    Ssba_sim.Metrics.incr c;
    Ssba_sim.Metrics.add g 1.0
  done

let tests =
  Test.make_grouped ~name:"ssba"
    [
      Test.make ~name:"e1_validity (n=7 agreement)" (Staged.stage e1);
      Test.make ~name:"e2_agreement (two-faced general)" (Staged.stage e2);
      Test.make ~name:"e3_msgdriven (fast network)" (Staged.stage e3_msgdriven);
      Test.make ~name:"e3_tps_baseline (time-driven)" (Staged.stage e3_tps_baseline);
      Test.make ~name:"e4_convergence (scramble+recover)" (Staged.stage e4);
      Test.make ~name:"e5_timeliness (n=13 agreement)" (Staged.stage e5);
      Test.make ~name:"e6_early_stop (round stretcher)" (Staged.stage e6);
      Test.make ~name:"e7_msg_complexity (n=16 agreement)" (Staged.stage e7);
      Test.make ~name:"e8_pulse (3 cycles)" (Staged.stage e8);
      Test.make ~name:"e12_churn (crash wave + recovery report)" (Staged.stage e12);
      Test.make ~name:"e13_sessions (210 concurrent per node)" (Staged.stage e13);
      Test.make ~name:"transport clean (n=7 framed)" (Staged.stage transport_clean);
      Test.make ~name:"transport lossy p=0.3 (n=7)" (Staged.stage transport_lossy);
      Test.make ~name:"engine 1k events" (Staged.stage engine_throughput);
      Test.make ~name:"recv_log 200 window queries" (Staged.stage recv_log_queries);
      Test.make ~name:"rng 10k floats" (Staged.stage rng_stream);
      Test.make ~name:"trace 10k records (disabled)" (Staged.stage trace_disabled);
      Test.make ~name:"trace 10k records (enabled)" (Staged.stage trace_enabled);
      Test.make ~name:"metrics 10k counter+gauge" (Staged.stage metrics_updates);
    ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let tbl = H.Table.create [ "benchmark"; "time/run" ] in
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, result) ->
         let cell =
           match Analyze.OLS.estimates result with
           | Some [ est ] ->
               if est > 1e6 then Printf.sprintf "%8.3f ms" (est /. 1e6)
               else Printf.sprintf "%8.3f us" (est /. 1e3)
           | _ -> "n/a"
         in
         H.Table.add_row tbl [ name; cell ]);
  H.Table.print tbl

(* Machine-readable transport benchmark: one framed agreement per loss rate
   (and an unframed p=0 baseline), with full message accounting, written to
   BENCH_transport.json for CI trend tracking. *)
let bench_transport_json path =
  let module J = Ssba_sim.Json in
  let row ~p ~transport =
    let t0 = Sys.time () in
    let res = H.Runner.run (lossy_scenario ~n:7 ~seed:9 ~p ~transport ()) in
    let cpu_ms = (Sys.time () -. t0) *. 1e3 in
    let decided =
      List.length
        (List.filter
           (fun (r : Core.Types.return_info) ->
             match r.Core.Types.outcome with
             | Core.Types.Decided _ -> true
             | Core.Types.Aborted -> false)
           res.H.Runner.returns)
    in
    J.Obj
      [
        ("n", J.Num 7.0);
        ("loss_p", J.Num p);
        ("transport", J.Bool transport);
        ("decided", J.Num (float_of_int decided));
        ("sent", J.Num (float_of_int res.H.Runner.messages_sent));
        ("delivered", J.Num (float_of_int res.H.Runner.messages_delivered));
        ("dropped", J.Num (float_of_int res.H.Runner.messages_dropped));
        ("retransmits", J.Num (float_of_int res.H.Runner.transport_retransmits));
        ( "dup_suppressed",
          J.Num (float_of_int res.H.Runner.transport_dup_suppressed) );
        ("expired", J.Num (float_of_int res.H.Runner.transport_expired));
        ("cpu_ms", J.Num cpu_ms);
      ]
  in
  let rows =
    row ~p:0.0 ~transport:false
    :: List.concat_map
         (fun p -> [ row ~p ~transport:true ])
         [ 0.0; 0.1; 0.3 ]
  in
  let oc = open_out path in
  output_string oc (J.to_string (J.Obj [ ("transport_bench", J.Arr rows) ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "transport benchmark written to %s\n%!" path

(* Machine-readable service benchmark: the recurrent-agreement service loop
   (DESIGN.md §12) under a calm open-loop workload and under arrival bursts,
   with the latency percentiles, throughput and shed accounting, written to
   BENCH_service.json for CI trend tracking. *)
let bench_service_json path =
  let module J = Ssba_sim.Json in
  let module W = Ssba_service.Workload in
  let module Svc = Ssba_service.Service in
  let n = 4 and seed = 23 in
  let params = Core.Params.default n in
  let row ~label ~(arrivals : W.arrivals) =
    let w =
      {
        W.default with
        W.arrivals;
        start_at = 0.05;
        stop_at = 10.0;
        channels = 8;
      }
    in
    let sc =
      H.Scenario.default ~name:"bench-service" ~seed
        ~horizon:(w.W.stop_at +. (1.5 *. params.Core.Params.delta_stb))
        ~channels:w.W.channels ~admission:true params
    in
    let t0 = Sys.time () in
    let _, r = Svc.run ~seed w sc in
    let cpu_ms = (Sys.time () -. t0) *. 1e3 in
    J.Obj
      [
        ("workload", J.Str label);
        ("n", J.Num (float_of_int n));
        ("arrivals", J.Num (float_of_int r.Svc.arrivals));
        ("admitted", J.Num (float_of_int r.Svc.admitted));
        ("decided", J.Num (float_of_int r.Svc.decided));
        ("timed_out", J.Num (float_of_int r.Svc.timed_out));
        ("shed", J.Num (float_of_int r.Svc.shed));
        ("retries", J.Num (float_of_int r.Svc.retries));
        ("p50_latency_s", J.Num r.Svc.p50_latency);
        ("p99_latency_s", J.Num r.Svc.p99_latency);
        ("max_latency_s", J.Num r.Svc.max_latency);
        ("throughput_per_s", J.Num r.Svc.throughput);
        ("peak_queue", J.Num (float_of_int r.Svc.peak_queue));
        ( "degraded_episodes",
          J.Num (float_of_int (List.length r.Svc.degraded_episodes)) );
        ("max_degraded_span_s", J.Num r.Svc.max_degraded_span);
        ("cpu_ms", J.Num cpu_ms);
      ]
  in
  let rows =
    [
      row ~label:"poisson-75" ~arrivals:(W.Poisson { rate = 75.0 });
      row ~label:"bursty-40x0.5s"
        ~arrivals:(W.Bursty { rate = 50.0; burst = 40; every = 0.5 });
    ]
  in
  let oc = open_out path in
  output_string oc (J.to_string (J.Obj [ ("service_bench", J.Arr rows) ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "service benchmark written to %s\n%!" path

(* Machine-readable engine throughput: the E11 scale sweep (one
   correct-General agreement per n, best-of-repeats wall time) written to
   BENCH_engine.json. [pre_pr_baseline] records the n=25 throughput measured
   on this machine before the hot-path overhaul, and [pre_batching_baseline]
   the n=61 throughput before broadcast fan-out batching and the pooled
   delivery arena, so the file documents both speedups it gates. *)
let engine_rows_json rows =
  let module J = Ssba_sim.Json in
  let row (r : H.Experiments.scale_row) =
    J.Obj
      [
        ("n", J.Num (float_of_int r.H.Experiments.sr_n));
        ("events", J.Num (float_of_int r.H.Experiments.sr_events));
        ("wall_ms", J.Num r.H.Experiments.sr_wall_ms);
        ("events_per_sec", J.Num r.H.Experiments.sr_events_per_sec);
        ("wall_ms_per_sim_s", J.Num r.H.Experiments.sr_wall_ms_per_sim_s);
        ("decided", J.Bool r.H.Experiments.sr_decided);
      ]
  in
  J.Obj
    [
      ( "engine_bench",
        J.Obj
          [
            ( "workload",
              J.Str
                "correct-General agreement, seed 111, horizon t0 + 2*delta_agr"
            );
            ( "pre_pr_baseline",
              J.Obj [ ("n", J.Num 25.0); ("events_per_sec", J.Num 308924.0) ] );
            ( "pre_batching_baseline",
              J.Obj [ ("n", J.Num 61.0); ("events_per_sec", J.Num 344144.0) ] );
            ("rows", J.Arr (List.map row rows));
          ] );
    ]

let write_engine_json path rows =
  let module J = Ssba_sim.Json in
  let oc = open_out path in
  output_string oc (J.to_string (engine_rows_json rows));
  output_char oc '\n';
  close_out oc;
  Printf.printf "engine benchmark written to %s\n%!" path

(* The committed baseline and the pre-PR measurement were both taken as
   best-of-many in one process (warm heap) under `--profile release`; match
   that methodology here so the file's speedup ratio compares like with
   like. Dune's dev profile passes `-opaque`, which strips cross-module
   Clambda approximations and with them all cross-module inlining — float
   returns box on every call and throughput drops ~25%. Regenerate with
     dune exec --profile release bench/main.exe -- --engine-json
   never from a dev build. *)
let bench_engine_json path =
  write_engine_json path (H.Experiments.e11_scale_rows ~repeats:25 ())

(* Baseline rows as (n, events_per_sec), from a committed BENCH_engine.json. *)
let read_engine_baseline path =
  let module J = Ssba_sim.Json in
  let ( let* ) = Option.bind in
  let* raw =
    try
      let ic = open_in path in
      let len = in_channel_length ic in
      let raw = really_input_string ic len in
      close_in ic;
      Some raw
    with Sys_error _ -> None
  in
  let* root = try Some (J.of_string raw) with J.Parse_error _ -> None in
  let* bench = J.member "engine_bench" root in
  let* rows = J.member "rows" bench in
  match rows with
  | J.Arr rs ->
      Some
        (List.filter_map
           (fun r ->
             let* n = Option.bind (J.member "n" r) J.to_int_opt in
             let* eps =
               Option.bind (J.member "events_per_sec" r) J.to_float_opt
             in
             Some (n, eps))
           rs)
  | _ -> None

(* CI smoke mode: a reduced sweep, gated against the committed baseline.
   Fails (exit 1) only on a >3x events/sec regression at some shared n —
   loose enough to absorb shared-runner noise, tight enough to catch a
   hot-path falling back to a quadratic or allocating implementation. The
   sweep tops out at n=101 so a scale regression that only bites past the
   historical n=61 ceiling (fan-out batching is what made n=101 routine)
   still trips the gate. Best-of-5 wall-ms per row: single-shot timings on
   shared runners swing far more than any real regression. *)
let engine_smoke ?baseline () =
  let ns = [ 7; 13; 25; 61; 101 ] in
  let rows = H.Experiments.e11_scale_rows ~ns ~repeats:5 () in
  let tbl = H.Table.create [ "n"; "events"; "wall(ms)"; "events/sec"; "vs baseline" ] in
  let failed = ref false in
  let base =
    match baseline with
    | None -> []
    | Some path -> (
        match read_engine_baseline path with
        | Some b -> b
        | None ->
            Printf.printf "engine-smoke: cannot read baseline %s\n%!" path;
            failed := true;
            [])
  in
  List.iter
    (fun (r : H.Experiments.scale_row) ->
      let n = r.H.Experiments.sr_n in
      let eps = r.H.Experiments.sr_events_per_sec in
      let verdict =
        match List.assoc_opt n base with
        | None -> "-"
        | Some b when eps *. 3.0 < b ->
            failed := true;
            Printf.sprintf "%.2fx SLOWER (fail)" (b /. eps)
        | Some b -> Printf.sprintf "%.2fx" (eps /. b)
      in
      H.Table.add_row tbl
        [
          string_of_int n;
          string_of_int r.H.Experiments.sr_events;
          Printf.sprintf "%.1f" r.H.Experiments.sr_wall_ms;
          Printf.sprintf "%.0f" eps;
          verdict;
        ])
    rows;
  H.Table.print tbl;
  write_engine_json "BENCH_engine.json" rows;
  if !failed then begin
    print_endline "engine-smoke: FAILED";
    exit 1
  end
  else print_endline "engine-smoke: ok"

let () =
  match Array.to_list Sys.argv with
  | _ :: "--engine-smoke" :: rest ->
      let baseline =
        match rest with [ "--baseline"; path ] -> Some path | _ -> None
      in
      engine_smoke ?baseline ()
  | [ _; "--engine-json" ] ->
      (* Regenerate just BENCH_engine.json (full sweep, no bechamel). *)
      bench_engine_json "BENCH_engine.json"
  | [ _; "--service-json" ] ->
      (* Regenerate just BENCH_service.json (no bechamel). *)
      bench_service_json "BENCH_service.json"
  | _ ->
      print_endline "## Bechamel benchmarks (one per experiment + substrates)";
      print_endline "";
      benchmark ();
      print_endline "";
      bench_transport_json "BENCH_transport.json";
      bench_service_json "BENCH_service.json";
      bench_engine_json "BENCH_engine.json";
      print_endline "";
      print_endline "## Experiment tables (paper reproduction, see EXPERIMENTS.md)";
      Ssba_harness.Experiments.run_all ()
