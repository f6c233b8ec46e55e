(* Tests for the harness: runner determinism, episode clustering, metrics,
   the property oracles and table rendering. *)

open Helpers
open Ssba_core
module H = Ssba_harness

let base_scenario ?(seed = 5) ?(proposals = [ { H.Scenario.g = 0; v = "m"; at = 0.05 } ]) () =
  H.Scenario.default ~name:"t" ~seed ~proposals ~horizon:1.0 (Params.default 7)

let test_runner_determinism () =
  let run () =
    let res = H.Runner.run (base_scenario ()) in
    ( List.map
        (fun (r : Types.return_info) -> (r.Types.node, r.Types.outcome, r.Types.rt_ret))
        res.H.Runner.returns,
      res.H.Runner.messages_sent )
  in
  check_bool "same seed, same run" true (run () = run ())

let test_runner_seed_changes_run () =
  let times seed =
    let res = H.Runner.run (base_scenario ~seed ()) in
    List.map (fun (r : Types.return_info) -> r.Types.rt_ret) res.H.Runner.returns
  in
  check_bool "different seeds differ" true (times 1 <> times 2)

let test_proposal_results_recorded () =
  let res = H.Runner.run (base_scenario ()) in
  match res.H.Runner.proposal_results with
  | [ (p, H.Runner.Accepted) ] -> check_str "the proposal" "m" p.H.Scenario.v
  | _ -> Alcotest.fail "expected one successful proposal"

(* Regression: a proposal whose General is Byzantine used to be recorded
   synchronously at build time as [Error Busy] — wrong label, and it jumped
   ahead of chronologically earlier proposals. It must be evaluated at its
   [at] time and keep [proposal_results] in schedule order. *)
let test_proposal_no_general_in_order () =
  let params = Params.default 7 in
  let sc =
    H.Scenario.default ~name:"t" ~seed:5
      ~cast:[ (3, Ssba_adversary.Catalog.Silent) ]
      ~proposals:
        [
          { H.Scenario.g = 0; v = "early"; at = 0.05 };
          { H.Scenario.g = 3; v = "byz"; at = 0.10 };
          { H.Scenario.g = 1; v = "late"; at = 0.40 };
        ]
      ~horizon:1.0 params
  in
  let res = H.Runner.run sc in
  match res.H.Runner.proposal_results with
  | [ (p1, o1); (p2, o2); (p3, o3) ] ->
      check_str "chronological first" "early" p1.H.Scenario.v;
      check_str "chronological second" "byz" p2.H.Scenario.v;
      check_str "chronological third" "late" p3.H.Scenario.v;
      check_bool "correct Generals accepted" true
        (o1 = H.Runner.Accepted && o3 = H.Runner.Accepted);
      check_bool "byzantine General labeled No_general" true
        (o2 = H.Runner.No_general)
  | l -> Alcotest.failf "expected 3 proposal results, got %d" (List.length l)

(* Every drained run satisfies the network conservation identity. *)
let test_network_conservation () =
  let res = H.Runner.run (base_scenario ()) in
  let v = H.Checks.network_conservation res in
  check_bool "sent = delivered + dropped + in_flight" true v.H.Checks.ok;
  check_bool "nontrivial run" true (res.H.Runner.messages_sent > 0);
  (* per-node counters landed in the registry *)
  check_bool "node0 proposals counted" true
    (Ssba_sim.Metrics.find_counter res.H.Runner.metrics "node0.proposals"
    = Some 1)

let test_episode_clustering () =
  (* two agreements by the same General, far apart: two episodes *)
  let params = Params.default 7 in
  let sc =
    H.Scenario.default ~name:"t" ~seed:5
      ~proposals:
        [
          { H.Scenario.g = 0; v = "a"; at = 0.05 };
          { H.Scenario.g = 0; v = "b"; at = 0.05 +. (3.0 *. params.Params.delta_agr) };
        ]
      ~horizon:1.0 params
  in
  let res = H.Runner.run sc in
  let eps = H.Metrics.episodes res in
  check_int "two episodes" 2 (List.length eps);
  List.iter
    (fun (e : H.Metrics.episode) -> check_int "seven returns each" 7 (List.length e.H.Metrics.returns))
    eps

let test_metrics_skews () =
  let res = H.Runner.run (base_scenario ()) in
  match H.Metrics.episodes res with
  | [ e ] ->
      let d = (Params.default 7).Params.d in
      check_bool "decision skew positive and bounded" true
        (H.Metrics.decision_skew res e >= 0.0
        && H.Metrics.decision_skew res e <= 3.0 *. d);
      check_bool "anchor skew bounded" true (H.Metrics.anchor_skew res e <= 6.0 *. d);
      check_bool "latency sane" true
        (H.Metrics.latency ~proposed_at:0.05 e > 0.0
        && H.Metrics.latency ~proposed_at:0.05 e < 0.1)
  | _ -> Alcotest.fail "expected one episode"

(* Regression: decision skew is the span of *decision* times only. An abort
   is not a decision (Timeliness-1a bounds decide events), so a mixed
   decide/abort episode — e.g. the block-R knife-edge, fuzz seed 7404
   iteration 173 — must not count the abort's return time. The old metric
   spanned every rt_ret and flagged phantom 19.9d skews. *)
let test_decision_skew_ignores_aborts () =
  let res = H.Runner.run (base_scenario ()) in
  let ret node outcome rt_ret =
    { Types.node; g = 0; outcome; tau_g = 0.0; tau_ret = rt_ret; rt_ret }
  in
  let mixed =
    {
      H.Metrics.g = 0;
      returns =
        [ ret 0 (Types.Decided "v") 0.010; ret 1 Types.Aborted 0.032;
          ret 2 Types.Aborted 0.030 ];
    }
  in
  check_float "single decide, aborts excluded" 0.0
    (H.Metrics.decision_skew res mixed);
  let two_decides =
    {
      H.Metrics.g = 0;
      returns =
        [ ret 0 (Types.Decided "v") 0.010; ret 1 (Types.Decided "v") 0.012;
          ret 2 Types.Aborted 0.030 ];
    }
  in
  check_float "span over decides only" 0.002
    (H.Metrics.decision_skew res two_decides);
  let all_aborted =
    { H.Metrics.g = 0; returns = [ ret 0 Types.Aborted 0.010; ret 1 Types.Aborted 0.030 ] }
  in
  check_float "abort-only episode has no skew" 0.0
    (H.Metrics.decision_skew res all_aborted)

let test_stats_helpers () =
  check_float "mean" 2.0 (H.Metrics.mean [ 1.0; 2.0; 3.0 ]);
  check_float "max" 3.0 (H.Metrics.maximum [ 1.0; 3.0; 2.0 ]);
  check_float "min" 1.0 (H.Metrics.minimum [ 2.0; 1.0; 3.0 ]);
  check_float "median" 2.0 (H.Metrics.percentile 0.5 [ 3.0; 1.0; 2.0 ]);
  check_float "span" 2.0 (H.Metrics.span [ 1.0; 3.0; 2.0 ]);
  check_bool "mean of empty is nan" true (Float.is_nan (H.Metrics.mean []))

let test_checks_agreement_classes () =
  let res = H.Runner.run (base_scenario ()) in
  (match H.Metrics.episodes res with
  | [ e ] -> (
      match H.Checks.agreement ~correct:res.H.Runner.correct e with
      | H.Checks.Unanimous v -> check_str "unanimous m" "m" v
      | _ -> Alcotest.fail "expected unanimity")
  | _ -> Alcotest.fail "expected one episode");
  check_bool "validity" true
    (match H.Metrics.episodes res with
    | [ e ] -> H.Checks.validity ~correct:res.H.Runner.correct ~v:"m" e
    | _ -> false)

let test_checks_detect_divergence () =
  (* hand-craft an episode with divergent decisions and verify the oracle
     flags it *)
  let mk_ret node v =
    {
      Types.node;
      g = 0;
      outcome = Types.Decided v;
      tau_g = 0.0;
      tau_ret = 0.001;
      rt_ret = 0.001;
    }
  in
  let e = { H.Metrics.g = 0; returns = [ mk_ret 1 "a"; mk_ret 2 "b" ] } in
  (match H.Checks.agreement ~correct:[ 1; 2 ] e with
  | H.Checks.Violated _ -> ()
  | _ -> Alcotest.fail "divergence not flagged");
  (* and decided-vs-aborted *)
  let e2 =
    {
      H.Metrics.g = 0;
      returns =
        [
          mk_ret 1 "a";
          { (mk_ret 2 "a") with Types.outcome = Types.Aborted };
        ];
    }
  in
  (match H.Checks.agreement ~correct:[ 1; 2 ] e2 with
  | H.Checks.Violated _ -> ()
  | _ -> Alcotest.fail "decided/aborted mix not flagged");
  (* and a missing correct node *)
  let e3 = { H.Metrics.g = 0; returns = [ mk_ret 1 "a" ] } in
  match H.Checks.agreement ~correct:[ 1; 2 ] e3 with
  | H.Checks.Violated _ -> ()
  | _ -> Alcotest.fail "missing node not flagged"

let test_pairwise_detects_violation () =
  (* run a clean scenario, then splice a conflicting decision into the
     result and check the pairwise oracle trips *)
  let res = H.Runner.run (base_scenario ()) in
  check_bool "clean run passes" true (H.Checks.pairwise_agreement res = []);
  let forged =
    match res.H.Runner.returns with
    | (r : Types.return_info) :: _ ->
        { r with Types.node = (r.Types.node + 1) mod 7; outcome = Types.Decided "other" }
    | [] -> Alcotest.fail "no returns"
  in
  let res' = { res with H.Runner.returns = forged :: res.H.Runner.returns } in
  check_bool "forged divergence detected" true
    (H.Checks.pairwise_agreement res' <> [])

let test_timeliness_verdicts () =
  let res = H.Runner.run (base_scenario ()) in
  match H.Metrics.episodes res with
  | [ e ] ->
      check_bool "1a ok" true (H.Checks.timeliness_1a res e).H.Checks.ok;
      check_bool "1b ok" true (H.Checks.timeliness_1b res e).H.Checks.ok;
      check_bool "1d ok" true (H.Checks.timeliness_1d res e).H.Checks.ok;
      check_bool "3 ok" true (H.Checks.timeliness_3 res e).H.Checks.ok
  | _ -> Alcotest.fail "expected one episode"

let test_table_rendering () =
  let t = H.Table.create [ "col"; "wide column" ] in
  H.Table.add_row t [ "a"; "b" ];
  H.Table.add_row t [ "longer"; "x" ];
  let s = H.Table.render t in
  let lines = String.split_on_char '\n' s in
  check_int "header + separator + 2 rows + trailing" 5 (List.length lines);
  check_bool "separator present" true
    (String.length (List.nth lines 1) > 0 && String.get (List.nth lines 1) 0 = '-');
  (* Newest row first: the E-table golden and EXPERIMENTS.md pin this order. *)
  check_str "last added row first" "longer  x" (List.nth lines 2);
  check_str "first added row last" "a       b" (List.nth lines 3)

let test_table_helpers () =
  check_str "f3" "1.500" (H.Table.f3 1.5);
  check_str "ms" "12.000" (H.Table.ms 0.012);
  check_str "in_d" "2.00d" (H.Table.in_d ~d:0.5 1.0);
  check_str "yn" "yes" (H.Table.yn true)

let test_crash_recover_events () =
  let params = Params.default 7 in
  let sc =
    H.Scenario.default ~name:"t" ~seed:5
      ~events:
        [
          H.Scenario.Crash { node = 6; at = 0.01 };
          H.Scenario.Recover { node = 6; at = 0.5 };
        ]
      ~proposals:
        [
          { H.Scenario.g = 0; v = "while-down"; at = 0.05 };
          { H.Scenario.g = 1; v = "after-up"; at = 0.6 };
        ]
      ~horizon:1.0 params
  in
  let res = H.Runner.run sc in
  check_bool "agreement holds across crash/recovery" true
    (H.Checks.pairwise_agreement res = []);
  let decided_by v =
    List.filter
      (fun (r : Types.return_info) -> r.Types.outcome = Types.Decided v)
      res.H.Runner.returns
    |> List.map (fun (r : Types.return_info) -> r.Types.node)
  in
  (* while node 6 is crashed it cannot send, but it still receives; the
     other six surely decide *)
  check_bool "first agreement decided by >= 6" true
    (List.length (decided_by "while-down") >= 6);
  check_bool "second agreement includes node 6" true
    (List.mem 6 (decided_by "after-up"))

(* One delta_eff cascade for every caller (Spec.params, ssba-run, E10): the
   base delta stretched by the worst reorder extra, then pushed through
   delta_eff for the worst loss. *)
let test_effective_params () =
  let delta = (Params.default 7).Params.delta in
  let transport = Ssba_transport.Transport.config ~rto:(3.0 *. delta) () in
  let at ~loss ~reorder =
    let events =
      (if loss > 0.0 then [ H.Scenario.Loss { at = 0.0; p = loss } ] else [])
      @
      if reorder > 0.0 then
        [ H.Scenario.Reorder { at = 0.0; prob = reorder; extra = 2.0 *. delta } ]
      else []
    in
    (H.Scenario.effective_params ~transport 7 events).Params.delta
  in
  check_float "reorder alone stretches delta by 2 delta" 0.003 (at ~loss:0.0 ~reorder:0.5);
  check_float ~eps:1e-6 "loss and reorder" 12.288 (at ~loss:0.1 ~reorder:0.5);
  check_float ~eps:1e-6 "loss alone" 12.286 (at ~loss:0.1 ~reorder:0.0);
  check_bool "no transport: the plain cascade" true
    (H.Scenario.effective_params 7 [ H.Scenario.Loss { at = 0.0; p = 0.1 } ]
    = Params.default 7)

let suite =
  [
    case "runner determinism" test_runner_determinism;
    case "seed changes run" test_runner_seed_changes_run;
    case "proposal results" test_proposal_results_recorded;
    case "proposal no-general ordering" test_proposal_no_general_in_order;
    case "network conservation" test_network_conservation;
    case "episode clustering" test_episode_clustering;
    case "metrics skews" test_metrics_skews;
    case "decision skew ignores aborts" test_decision_skew_ignores_aborts;
    case "stats helpers" test_stats_helpers;
    case "agreement classes" test_checks_agreement_classes;
    case "divergence detected" test_checks_detect_divergence;
    case "pairwise oracle detects violations" test_pairwise_detects_violation;
    case "timeliness verdicts" test_timeliness_verdicts;
    case "table rendering" test_table_rendering;
    case "table helpers" test_table_helpers;
    case "crash/recover events" test_crash_recover_events;
    case "one delta_eff cascade" test_effective_params;
  ]
