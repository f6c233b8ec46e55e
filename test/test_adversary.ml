(* Tests for the Byzantine behaviour framework and concrete strategies. *)

open Helpers
open Ssba_core
module H = Ssba_harness
module C = Ssba_adversary.Catalog
module RS = Ssba_adversary.Round_stretcher

let params7 = Params.default 7

let run_scenario ?(n = 7) ?(seed = 3) ?(horizon = 1.0) ?(proposals = []) cast =
  let params = Params.default n in
  let sc = H.Scenario.default ~name:"adv" ~seed ~cast ~proposals ~horizon params in
  H.Runner.run sc

let test_silent_general_no_returns () =
  let res = run_scenario [ (0, C.Silent) ] in
  check_int "nothing happens" 0 (List.length res.H.Runner.returns)

let test_spam_cannot_forge_decisions () =
  (* Spammers cannot make correct nodes decide a value for a *correct*
     General that proposed nothing: only spammers' own ids can carry their
     Initiator payloads (authenticated channels), so any decided episode
     must name a spammer as General. *)
  let res =
    run_scenario ~horizon:1.0
      [
        (5, C.Spam { period_d = 3.0; values = [ "a"; "b" ] });
        (6, C.Spam { period_d = 3.0; values = [ "a"; "b" ] });
      ]
  in
  List.iter
    (fun (r : Types.return_info) ->
      check_bool "only spammers' own Generals decide" true
        (List.mem r.Types.g [ 5; 6 ]))
    res.H.Runner.returns;
  check_bool "agreement holds under spam" true
    (H.Checks.pairwise_agreement res = [])

let test_spam_bounded () =
  (* the rate limit keeps spam linear in time, not exploding *)
  let res =
    run_scenario ~horizon:0.5
      [ (6, C.Spam { period_d = 5.0; values = [ "a" ] }) ]
  in
  check_bool "bounded message count" true (res.H.Runner.messages_sent < 200_000)

let test_mimic_agreement_holds () =
  let res =
    run_scenario
      ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ]
      [
        (5, C.Mimic { delay_d = 2.0 });
        (6, C.Mimic { delay_d = 2.0 });
      ]
  in
  check_bool "agreement holds" true (H.Checks.pairwise_agreement res = []);
  let decided =
    List.filter
      (fun (r : Types.return_info) -> r.Types.outcome = Types.Decided "m")
      res.H.Runner.returns
  in
  check_int "all 5 correct decide the proposal" 5 (List.length decided)

let test_two_faced_no_divergence () =
  List.iter
    (fun seed ->
      let res =
        run_scenario ~seed ~horizon:2.0
          [ (0, C.Two_faced_general { v1 = "a"; v2 = "b"; at = 0.05 }) ]
      in
      check_bool "no divergent decisions" true (H.Checks.pairwise_agreement res = []))
    [ 1; 2; 3; 4; 5 ]

let test_equivocators_with_correct_general () =
  let res =
    run_scenario
      ~proposals:[ { H.Scenario.g = 0; v = "real"; at = 0.05 } ]
      [
        (5, C.Equivocator { v1 = "fake1"; v2 = "fake2" });
        (6, C.Equivocator { v1 = "fake1"; v2 = "fake2" });
      ]
  in
  check_bool "agreement holds" true (H.Checks.pairwise_agreement res = []);
  check_bool "the real value wins" true
    (List.exists
       (fun (r : Types.return_info) -> r.Types.outcome = Types.Decided "real")
       res.H.Runner.returns)

let test_partial_general_relay () =
  (* initiation towards n - f nodes: the relay property must pull the
     remaining correct nodes to the same decision *)
  let n = 7 in
  let params = Params.default n in
  let targets = List.init (n - params.Params.f) (fun i -> i + 1) in
  let res =
    run_scenario ~horizon:2.0
      [ (0, C.Partial_general { v = "p"; at = 0.05; targets }) ]
  in
  let deciders =
    List.filter_map
      (fun (r : Types.return_info) ->
        if r.Types.outcome = Types.Decided "p" then Some r.Types.node else None)
      res.H.Runner.returns
  in
  check_int "all 6 correct nodes decide, invited or not" 6
    (List.length (List.sort_uniq compare deciders));
  check_bool "agreement holds" true (H.Checks.pairwise_agreement res = [])

let test_stagger_general_safe () =
  List.iter
    (fun gap_d ->
      let res =
        run_scenario ~horizon:2.0
          [ (0, C.Stagger_general { v = "s"; at = 0.05; gap_d }) ]
      in
      check_bool "agreement holds for any stagger" true
        (H.Checks.pairwise_agreement res = []))
    [ 0.1; 0.5; 1.0; 2.0; 5.0 ]

let test_flip_flop_safe () =
  let res =
    run_scenario
      ~proposals:[ { H.Scenario.g = 0; v = "m"; at = 0.05 } ]
      (* bursts of 45d, about 0.05 s at n = 7 *)
      [ (6, C.Flip_flop { period_d = 45.0; values = [ "z" ] }) ]
  in
  check_bool "agreement holds" true (H.Checks.pairwise_agreement res = [])

(* --- round stretcher ----------------------------------------------------- *)

(* The stretcher's world: perfect clocks, a fixed delay of 0.1d and the
   colluders' scripted cast, run to three agreement bounds. *)
let stretch ?complete_round ~n ~fprime () =
  let params = Params.default n in
  let eps = 0.1 *. params.Params.d in
  let colluders = List.init fprime Fun.id in
  let st = RS.make ?complete_round ~params ~colluders ~v:"evil" ~t0:0.05 ~eps () in
  let sc =
    H.Scenario.default ~name:"stretch" ~seed:5 ~clocks:H.Scenario.Perfect
      ~delay:(Ssba_net.Delay.fixed eps) ~cast:(RS.cast st)
      ~horizon:(0.05 +. (3.0 *. params.Params.delta_agr))
      params
  in
  (params, st, (H.Runner.run sc).H.Runner.returns)

let test_stretcher_blocks_fast_path_and_aborts () =
  let params, _st, returns = stretch ~n:10 ~fprime:2 () in
  check_int "all correct nodes return" 8 (List.length returns);
  List.iter
    (fun (r : Types.return_info) ->
      check_bool "everyone aborts" true (r.Types.outcome = Types.Aborted);
      check_bool "fast path blocked (ran past 4d)" true
        (r.Types.tau_ret -. r.Types.tau_g > 4.0 *. params.Params.d))
    returns

let test_stretcher_linear_in_fprime () =
  let phases fprime =
    let params, _, returns = stretch ~n:16 ~fprime () in
    List.fold_left
      (fun acc (r : Types.return_info) ->
        Float.max acc ((r.Types.tau_ret -. r.Types.tau_g) /. params.Params.phi))
      0.0 returns
  in
  let p1 = phases 1 and p2 = phases 2 and p3 = phases 3 in
  check_bool "7 phases at f'=1" true (Float.abs (p1 -. 7.0) < 0.3);
  check_bool "9 phases at f'=2" true (Float.abs (p2 -. 9.0) < 0.3);
  check_bool "11 phases at f'=3" true (Float.abs (p3 -. 11.0) < 0.3)

let test_stretcher_capped_by_u () =
  let params, _st, returns = stretch ~n:10 ~fprime:3 () in
  let cap = params.Params.delta_agr in
  List.iter
    (fun (r : Types.return_info) ->
      check_bool "U caps the stretch at Dagr" true
        (r.Types.tau_ret -. r.Types.tau_g <= cap +. params.Params.d))
    returns

let test_stretcher_validations () =
  let mk colluders =
    ignore (RS.make ~params:params7 ~colluders ~v:"x" ~t0:0.0 ~eps:0.0001 ())
  in
  (match mk [] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "empty colluders accepted");
  match mk [ 0; 1; 2 ] (* f = 2 < 3 *) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "over-budget colluders accepted"

let suite =
  [
    case "silent General" test_silent_general_no_returns;
    case "spam cannot forge decisions" test_spam_cannot_forge_decisions;
    case "spam bounded" test_spam_bounded;
    case "mimic: agreement holds" test_mimic_agreement_holds;
    case "two-faced: no divergence" test_two_faced_no_divergence;
    case "equivocators vs correct General" test_equivocators_with_correct_general;
    case "partial General: relay" test_partial_general_relay;
    case "stagger General: safe" test_stagger_general_safe;
    case "flip-flop: safe" test_flip_flop_safe;
    case "stretcher blocks fast path" test_stretcher_blocks_fast_path_and_aborts;
    case "stretcher linear in f'" test_stretcher_linear_in_fprime;
    case "stretcher capped by U" test_stretcher_capped_by_u;
    case "stretcher validations" test_stretcher_validations;
  ]

let test_stretcher_decide_variant () =
  (* the complete_round variant: after the IA-stretch, the last colluder's
     honest round-1 broadcast makes every correct node *decide* the Byzantine
     value through block S — unanimously, past the 4d fast-path window *)
  let params, st, returns = stretch ~complete_round:true ~n:10 ~fprime:2 () in
  check_int "all 8 correct nodes return" 8 (List.length returns);
  List.iter
    (fun (r : Types.return_info) ->
      check_bool "everyone decides the Byzantine value" true
        (r.Types.outcome = Types.Decided "evil");
      let phases = (r.Types.tau_ret -. r.Types.tau_g) /. params.Params.phi in
      check_bool "past the fast path, within S(1)'s deadline" true
        (r.Types.tau_ret -. r.Types.tau_g > 4.0 *. params.Params.d
        && phases <= float_of_int (RS.expected_decide_phase st) +. 0.01))
    returns

let suite = suite @ [ case "stretcher decide variant" test_stretcher_decide_variant ]
