(* E17 — recurrent-agreement service soak.

   Three runs of the long-lived service loop (DESIGN.md §12):

   1. The soak: ~70 s of open-loop Poisson arrivals at 75 jobs/s over 8
      channels with the pulse layer cycling — >= 5,000 admitted sessions and
      >= 1,000 pulses in one execution, every decided episode unanimous,
      no timeouts and no exhausted retry budgets. The latency percentiles,
      throughput and pulse skew land in the table.

   2. The overload probe: the same cluster with bursty arrivals and starved
      watermarks, so shedding and degraded-mode episodes actually occur —
      every closed episode must recover within Delta_stb, and none may
      still be open at the horizon (the drain guarantee, non-vacuously).

   3. The tight-table probe: session capacity forced down to 8 with
      admission control on, so the [At_capacity] backstop fires and the
      [rejected_at_capacity] counter is exercised behind the service's own
      watermark shedding.

   Every assertion here is also fuzzed continuously by the --overload tier;
   the experiment pins one deterministic, human-readable instance. *)

module P = Ssba_core.Params
module Sc = Ssba_harness.Scenario
module H = Ssba_harness
module W = Workload

let check name ok = if not ok then Fmt.failwith "E17: %s" name

let episodes_ok (res : H.Runner.result) =
  List.for_all
    (fun (e : H.Metrics.episode) ->
      match H.Checks.agreement ~correct:res.H.Runner.correct e with
      | H.Checks.Violated _ -> false
      | H.Checks.Unanimous _ | H.Checks.All_aborted | H.Checks.All_silent ->
          true)
    (H.Metrics.episodes res)

(* Under retry pressure the per-General episode clustering merges distinct
   jobs (retry spacing < Delta_agr), so judge by value instead — service
   values are unique per attempt. Every value some correct node decided must
   have been decided by at least [min_nodes] correct nodes; any smaller
   count means a session stalled partway through the accept cascade. *)
let coverage_ok ~min_nodes (res : H.Runner.result) =
  let by_value : (string, int list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (r : Ssba_core.Types.return_info) ->
      match r.Ssba_core.Types.outcome with
      | Ssba_core.Types.Decided v when Service.is_service_value v ->
          let nodes =
            Option.value ~default:[] (Hashtbl.find_opt by_value v)
          in
          if not (List.mem r.Ssba_core.Types.node nodes) then
            Hashtbl.replace by_value v (r.Ssba_core.Types.node :: nodes)
      | _ -> ())
    res.H.Runner.returns;
  Hashtbl.fold
    (fun _ nodes ok -> ok && List.length nodes >= min_nodes)
    by_value true

let scenario ~seed ~params (w : W.t) =
  Sc.default ~name:"e17" ~seed
    ~horizon:(w.W.stop_at +. (1.5 *. params.P.delta_stb))
    ~channels:w.W.channels ~admission:true params

let run () =
  let n = 4 and seed = 17 in
  Fmt.pr "E17 — Recurrent-agreement service soak@.@.";
  let params = P.default n in
  let d = params.P.d in
  (* --- 1: the calm soak, sized for >= 5,000 sessions and >= 1,000 pulses *)
  let soak_w =
    {
      W.default with
      W.arrivals = W.Poisson { rate = 75.0 };
      start_at = 0.05;
      stop_at = 70.0;
      channels = 8;
      retry_base = 4.0 *. d;
      pulse_cycles = 1000;
    }
  in
  let res, r = Service.run ~seed soak_w (scenario ~seed ~params soak_w) in
  let window = soak_w.W.stop_at -. soak_w.W.start_at in
  Fmt.pr "soak: n=%d, %g jobs/s over %g s, 8 channels, pulse layer on@." n
    (W.rate soak_w.W.arrivals) window;
  Fmt.pr "  admitted %d  decided %d  timed-out %d  gave-up %d  shed %d@."
    r.Service.admitted r.Service.decided r.Service.timed_out r.Service.gave_up
    r.Service.shed;
  Fmt.pr "  latency p50 %.2fd  p99 %.2fd  max %.2fd  throughput %.1f/s@."
    (r.Service.p50_latency /. d)
    (r.Service.p99_latency /. d)
    (r.Service.max_latency /. d)
    r.Service.throughput;
  Fmt.pr "  pulses %d  pulse skew %.2fd (bound 3d)@." r.Service.pulses
    (r.Service.pulse_skew /. d);
  check "soak admitted >= 5000" (r.Service.admitted >= 5000);
  check "soak pulses >= 1000" (r.Service.pulses >= 1000);
  check "soak: no timeouts" (r.Service.timed_out = 0);
  check "soak: no exhausted retry budgets" (r.Service.gave_up = 0);
  check "soak: every episode agreed" (episodes_ok res);
  check "soak: pulse skew within 3d" (r.Service.pulse_skew <= 3.0 *. d);
  (* --- 2: overload, so degraded-mode recovery is bounded non-vacuously *)
  let over_w =
    {
      W.default with
      W.arrivals = W.Bursty { rate = 50.0; burst = 40; every = 0.5 };
      start_at = 0.05;
      stop_at = 10.0;
      channels = 8;
      queue_cap = 8;
      high_watermark = 0.4;
      low_watermark = 0.2;
      retry_base = 4.0 *. d;
    }
  in
  let res, r = Service.run ~seed over_w (scenario ~seed ~params over_w) in
  let closed =
    List.filter_map (fun (en, ex) -> Option.map (fun x -> x -. en) ex)
      r.Service.degraded_episodes
  in
  let max_span = List.fold_left Float.max 0.0 closed in
  Fmt.pr
    "@.overload: bursts of 40 every 0.5 s, watermarks 0.4/0.2, queue cap 8@.";
  Fmt.pr "  arrivals %d  admitted %d  shed %d (degraded %d, watermark %d, \
          queue-full %d)@."
    r.Service.arrivals r.Service.admitted r.Service.shed
    r.Service.shed_degraded r.Service.shed_watermark r.Service.shed_queue_full;
  Fmt.pr "  degraded episodes %d  max recovery %.1fd  (Delta_stb = %.1fd)@."
    (List.length r.Service.degraded_episodes)
    (max_span /. d)
    (params.P.delta_stb /. d);
  check "overload: shedding occurred" (r.Service.shed > 0);
  check "overload: degraded mode engaged"
    (r.Service.degraded_episodes <> []);
  check "overload: every degraded episode closed"
    (r.Service.unresolved_degraded = 0);
  check "overload: recovery within Delta_stb"
    (max_span <= params.P.delta_stb);
  check "overload: every decided job decided cluster-wide"
    (coverage_ok ~min_nodes:(List.length res.H.Runner.correct) res);
  (* --- 3: tight tables, so the At_capacity backstop itself is exercised.
     The service's own watermark fires strictly before a table fills (the
     worst live/capacity fraction reaches 1.0 exactly when a node is full),
     so the backstop behind it needs a direct admission-controlled proposal
     flood: 16 sessions per node against capacity 8. *)
  let channels = 16 and capacity = 8 in
  let k = n * channels in
  let t0 = 0.05 in
  let flood =
    List.init k (fun i ->
        {
          Sc.g = i;
          v = Printf.sprintf "flood-%d" i;
          at = t0 +. (float_of_int i /. float_of_int k *. d);
        })
  in
  let sc =
    Sc.default ~name:"e17-tight" ~seed ~proposals:flood ~channels
      ~session_capacity:capacity ~admission:true
      ~horizon:(t0 +. (3.0 *. params.P.delta_agr))
      params
  in
  let res = H.Runner.run sc in
  let rejected =
    List.fold_left
      (fun acc (_, nd) ->
        acc
        + (Ssba_core.Node.session_stats nd)
            .Ssba_core.Session_table.rejected_at_capacity)
      0 res.H.Runner.nodes
  in
  let refused =
    List.length
      (List.filter
         (fun (_, o) ->
           match o with
           | H.Runner.Refused Ssba_core.Node.At_capacity -> true
           | _ -> false)
         res.H.Runner.proposal_results)
  in
  Fmt.pr
    "@.tight tables: %d sessions/node proposed against capacity %d, \
     admission on@."
    channels capacity;
  Fmt.pr "  proposals %d  refused At_capacity %d  rejected-at-capacity %d@." k
    refused rejected;
  check "tight: At_capacity rejections occurred" (rejected > 0);
  check "tight: refusals surfaced to the proposers" (refused > 0);
  Fmt.pr "@.all E17 checks passed@."
