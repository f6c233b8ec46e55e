(* Tests for the primitive-level invariant monitor (IA-*/TPS-* properties
   checked from recorded observations). *)

open Helpers
open Ssba_core
module H = Ssba_harness

let run ?(n = 7) ?(seed = 41) ?(cast = []) ?(proposals = []) ?(horizon = 1.0) () =
  let params = Params.default n in
  let sc =
    H.Scenario.default ~name:"inv" ~seed ~cast ~proposals ~horizon
      ~record_observations:true params
  in
  H.Runner.run sc

let test_observations_recorded () =
  let res = run ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ] () in
  let iaccepts =
    List.filter
      (fun (o : H.Runner.observation) ->
        match o.H.Runner.obs with
        | Ss_byz_agree.Obs_iaccept _ -> true
        | _ -> false)
      res.H.Runner.observations
  in
  check_int "one I-accept per node" 7 (List.length iaccepts);
  let broadcasts =
    List.filter
      (fun (o : H.Runner.observation) ->
        match o.H.Runner.obs with
        | Ss_byz_agree.Obs_broadcast _ -> true
        | _ -> false)
      res.H.Runner.observations
  in
  check_int "one decision broadcast per node" 7 (List.length broadcasts)

let test_observations_off_by_default () =
  let params = Params.default 7 in
  let sc =
    H.Scenario.default ~name:"inv" ~seed:41
      ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ]
      ~horizon:1.0 params
  in
  let res = H.Runner.run sc in
  check_int "no observations unless requested" 0
    (List.length res.H.Runner.observations)

let test_ia1_correct_general () =
  let res = run ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ] () in
  match H.Invariants.check_ia_1 res ~g:0 ~t0:0.05 with
  | [] -> ()
  | vs -> Alcotest.failf "IA-1 violations: %s" (String.concat "; " vs)

let test_ia_tps_clean_run () =
  let res = run ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ] () in
  match H.Invariants.check res with
  | [] -> ()
  | vs -> Alcotest.failf "violations: %s" (String.concat "; " vs)

let test_invariants_under_attacks () =
  let module C = Ssba_adversary.Catalog in
  List.iter
    (fun (name, cast, proposals) ->
      let res = run ~seed:42 ~cast ~proposals ~horizon:2.0 () in
      match H.Invariants.check res with
      | [] -> ()
      | vs -> Alcotest.failf "%s: %s" name (String.concat "; " vs))
    [
      ( "two-faced",
        [ (0, C.Two_faced_general { v1 = "a"; v2 = "b"; at = 0.05 }) ],
        [] );
      ( "partial",
        [ (0, C.Partial_general { v = "a"; at = 0.05; targets = [ 1; 2; 3; 4; 5 ] }) ],
        [] );
      ( "equivocators",
        [ (5, C.Equivocator { v1 = "a"; v2 = "b" }); (6, C.Mimic { delay_d = 2.0 }) ],
        [ { H.Scenario.g = 0; v = "m"; at = 0.05 } ] );
    ]

let test_invariants_recurrent () =
  let params = Params.default 7 in
  let res =
    run
      ~proposals:
        [
          { H.Scenario.g = 0; v = "a"; at = 0.05 };
          { H.Scenario.g = 0; v = "b"; at = 0.05 +. (2.0 *. params.Params.delta_0) };
          { H.Scenario.g = 1; v = "c"; at = 0.06 };
        ]
      ~horizon:2.0 ()
  in
  match H.Invariants.check res with
  | [] -> ()
  | vs -> Alcotest.failf "violations: %s" (String.concat "; " vs)

let test_monitor_detects_forged_divergence () =
  (* splice a fake I-accept with a conflicting value into the observations
     and confirm IA-4 trips — guards against the monitor silently passing
     everything *)
  let res = run ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ] () in
  let sample =
    List.find
      (fun (o : H.Runner.observation) ->
        match o.H.Runner.obs with Ss_byz_agree.Obs_iaccept _ -> true | _ -> false)
      res.H.Runner.observations
  in
  let forged =
    match sample.H.Runner.obs with
    | Ss_byz_agree.Obs_iaccept { tau_g; tau; _ } ->
        {
          sample with
          H.Runner.obs_node = (sample.H.Runner.obs_node + 1) mod 7;
          obs = Ss_byz_agree.Obs_iaccept { v = "other"; tau_g; tau };
        }
    | _ -> assert false
  in
  let res' =
    { res with H.Runner.observations = forged :: res.H.Runner.observations }
  in
  check_bool "forged divergent I-accept detected" true
    (H.Invariants.check_ia_3_4 res' <> [])

let test_monitor_detects_unforgeability_break () =
  (* a fabricated mb-accept claiming a correct node that never broadcast *)
  let res = run ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ] () in
  let fake =
    {
      H.Runner.obs_node = 2;
      obs_g = 0;
      obs = Ss_byz_agree.Obs_mb_accept { p = 3; v = "never-sent"; k = 1; tau = 0.1; tau_g = 0.09 };
      obs_rt = 0.06;
    }
  in
  let res' = { res with H.Runner.observations = fake :: res.H.Runner.observations } in
  check_bool "TPS-2 forgery detected" true
    (List.exists
       (fun s -> String.length s >= 5 && String.sub s 0 5 = "TPS-2")
       (H.Invariants.check res'))

let trips prefix vs =
  List.exists
    (fun s ->
      String.length s >= String.length prefix
      && String.sub s 0 (String.length prefix) = prefix)
    vs

(* Perfect clocks so forged local anchors are also the real-time anchors the
   monitors cluster on. *)
let run_perfect () =
  let params = Params.default 7 in
  let sc =
    H.Scenario.default ~name:"inv" ~seed:41 ~clocks:H.Scenario.Perfect
      ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ]
      ~horizon:1.0 ~record_observations:true params
  in
  (params, H.Runner.run sc)

let test_monitor_session_keying_sensitivity () =
  (* The session-keyed IA monitor must judge each (G, tau_g) session
     independently: conflated sessions must trip, and a weakened monitor
     that chains nearby anchors transitively or excuses one session with
     another's accepts would pass exactly these shapes. *)
  let params, res = run_perfect () in
  let d = params.Params.d in
  let session ~anchor ~v =
    List.map
      (fun node ->
        {
          H.Runner.obs_node = node;
          obs_g = 5;
          obs = Ss_byz_agree.Obs_iaccept { v; tau_g = anchor; tau = anchor +. d };
          obs_rt = anchor +. d;
        })
      (List.init 7 Fun.id)
  in
  let with_obs obs =
    { res with H.Runner.observations = res.H.Runner.observations @ obs }
  in
  (* cross-session conflation: anchors 3d apart are ONE session; two values
     inside it are a uniqueness violation, not two excusable executions *)
  let conflated =
    with_obs (session ~anchor:0.3 ~v:"a" @ session ~anchor:(0.3 +. (3.0 *. d)) ~v:"b")
  in
  check_bool "same-session divergence trips IA-4" true
    (trips "IA-4" (H.Invariants.check_ia_3_4 conflated));
  (* forbidden zone: same value re-anchored 10d apart is two sessions, and
     exactly what IA-4b outlaws *)
  let forbidden =
    with_obs (session ~anchor:0.3 ~v:"a" @ session ~anchor:(0.3 +. (10.0 *. d)) ~v:"a")
  in
  check_bool "forbidden-zone re-accept trips IA-4b" true
    (trips "IA-4b" (H.Invariants.check_ia_3_4 forbidden));
  (* legal distinct sessions: past the separation window nothing may trip —
     a monitor that conflates them would see a spurious violation here *)
  let legal_gap = (2.0 *. params.Params.delta_rmv /. d) +. 10.0 in
  let legal =
    with_obs
      (session ~anchor:0.3 ~v:"a" @ session ~anchor:(0.3 +. (legal_gap *. d)) ~v:"a")
  in
  (match H.Invariants.check_ia_3_4 legal with
  | [] -> ()
  | vs -> Alcotest.failf "legal distinct sessions flagged: %s" (String.concat "; " vs))

let test_checks_relay_judged_per_session () =
  (* Same sensitivity at the returns level: a node's decision in a *later*
     session of the same General must not excuse its absence from an earlier
     one (the General-keyed monitor's blind spot that hid the IA-4 gap). *)
  let params, res = run_perfect () in
  let d = params.Params.d in
  let ret ~node ~anchor ~v =
    {
      Types.node;
      g = 5;
      outcome = Types.Decided v;
      tau_g = anchor;
      tau_ret = anchor +. (20.0 *. d);
      rt_ret = anchor +. (20.0 *. d);
    }
  in
  let session ~anchor ~v ~nodes = List.map (fun n -> ret ~node:n ~anchor ~v) nodes in
  let all = List.init 7 Fun.id in
  let with_returns rs =
    { res with H.Runner.returns = res.H.Runner.returns @ rs }
  in
  (* complete sessions: nothing to flag *)
  let clean =
    with_returns
      (session ~anchor:0.3 ~v:"a" ~nodes:all
      @ session ~anchor:(0.3 +. (100.0 *. d)) ~v:"b" ~nodes:all)
  in
  (match H.Checks.pairwise_agreement clean with
  | [] -> ()
  | vs -> Alcotest.failf "complete sessions flagged: %s" (String.concat "; " vs));
  (* node 6 absent from session 1, present in session 2: must trip *)
  let split =
    with_returns
      (session ~anchor:0.3 ~v:"a" ~nodes:[ 0; 1; 2; 3; 4; 5 ]
      @ session ~anchor:(0.3 +. (100.0 *. d)) ~v:"b" ~nodes:all)
  in
  check_bool "cross-session excusal rejected" true
    (H.Checks.pairwise_agreement split <> [])

(* qcheck: invariants hold across random clean and adversarial scenarios. *)
let prop_invariants_random =
  QCheck.Test.make ~name:"IA/TPS invariants across random scenarios" ~count:25
    QCheck.(pair (int_range 0 1000) (int_range 0 3))
    (fun (seed, cast) ->
      let module C = Ssba_adversary.Catalog in
      let proposals =
        if cast = 3 then [] else [ { H.Scenario.g = 0; v = "m"; at = 0.05 } ]
      in
      let cast =
        match cast with
        | 0 -> []
        | 1 -> [ (6, C.Spam { period_d = 5.0; values = [ "a" ] }) ]
        | 2 -> [ (6, C.Equivocator { v1 = "a"; v2 = "b" }) ]
        | _ -> [ (0, C.Two_faced_general { v1 = "a"; v2 = "b"; at = 0.05 }) ]
      in
      let res = run ~seed ~cast ~proposals ~horizon:1.5 () in
      H.Invariants.check res = [])

let suite =
  [
    case "observations recorded" test_observations_recorded;
    case "observations off by default" test_observations_off_by_default;
    case "IA-1 under a correct General" test_ia1_correct_general;
    case "IA/TPS on a clean run" test_ia_tps_clean_run;
    case "IA/TPS under attacks" test_invariants_under_attacks;
    case "IA/TPS under recurrent agreements" test_invariants_recurrent;
    case "monitor detects divergence" test_monitor_detects_forged_divergence;
    case "monitor detects TPS-2 forgery" test_monitor_detects_unforgeability_break;
    case "session keying sensitivity" test_monitor_session_keying_sensitivity;
    case "relay judged per session" test_checks_relay_judged_per_session;
    Helpers.qcheck prop_invariants_random;
  ]
