(* Tests for the coherence timeline, the per-disruption recovery oracle, and
   the chaos schedules that exercise them. *)

open Helpers
open Ssba_core
module H = Ssba_harness

let params7 = Params.default 7
let values = [ "x"; "y"; "z" ]

let sc ?(cast = []) ?(events = []) ?(proposals = []) ?(horizon = 1.0) ?transport
    () =
  H.Scenario.default ~name:"coh" ~seed:5 ~cast ~events ~proposals ~horizon
    ?transport params7

let intervals ?cast ?events ?horizon ?transport () =
  H.Coherence.intervals (sc ?cast ?events ?horizon ?transport ())

let bounds (i : H.Coherence.interval) =
  (i.H.Coherence.t_start, i.H.Coherence.t_end, i.H.Coherence.after_disruption)

let test_calm_is_one_interval () =
  match intervals () with
  | [ i ] ->
      check_bool "spans the whole run" true (bounds i = (0.0, 1.0, false));
      check_bool "everyone correct" true
        (i.H.Coherence.correct = List.init 7 Fun.id)
  | ivs -> Alcotest.failf "expected 1 interval, got %d" (List.length ivs)

let test_crash_recover_splits () =
  let events =
    [
      H.Scenario.Crash { node = 2; at = 0.2 };
      H.Scenario.Recover { node = 2; at = 0.5 };
    ]
  in
  match intervals ~events () with
  | [ a; b ] ->
      check_bool "pre-crash" true (bounds a = (0.0, 0.2, false));
      check_bool "post-recover, flagged" true (bounds b = (0.5, 1.0, true))
  | ivs -> Alcotest.failf "expected 2 intervals, got %d" (List.length ivs)

let test_byzantine_crash_is_not_incoherence () =
  (* muting a node the adversary already owns takes nothing away *)
  let cast = [ (6, Ssba_adversary.Catalog.Silent) ] in
  let events =
    [
      H.Scenario.Crash { node = 6; at = 0.2 };
      H.Scenario.Recover { node = 6; at = 0.5 };
    ]
  in
  (* Recover of a non-crashed-correct node changes nothing either: one
     unbroken interval. *)
  match intervals ~cast ~events () with
  | [ i ] -> check_bool "unbroken" true (bounds i = (0.0, 1.0, false))
  | ivs -> Alcotest.failf "expected 1 interval, got %d" (List.length ivs)

let test_scramble_is_a_point_disruption () =
  let events = [ H.Scenario.Scramble { at = 0.3; values; net_garbage = 10 } ] in
  match intervals ~events () with
  | [ a; b ] ->
      check_bool "before" true (bounds a = (0.0, 0.3, false));
      check_bool "after, flagged" true (bounds b = (0.3, 1.0, true))
  | ivs -> Alcotest.failf "expected 2 intervals, got %d" (List.length ivs)

let test_surge_and_restore () =
  let events =
    [
      H.Scenario.Delay_surge { at = 0.2; factor = 3.0 };
      H.Scenario.Delay_restore { at = 0.6 };
    ]
  in
  match intervals ~events () with
  | [ a; b ] ->
      check_bool "pre-surge" true (bounds a = (0.0, 0.2, false));
      check_bool "post-restore" true (bounds b = (0.6, 1.0, true))
  | ivs -> Alcotest.failf "expected 2 intervals, got %d" (List.length ivs)

let test_reform_grows_the_correct_set () =
  let cast = [ (6, Ssba_adversary.Catalog.Silent) ] in
  let events = [ H.Scenario.Reform { node = 6; at = 0.4 } ] in
  match intervals ~cast ~events () with
  | [ a; b ] ->
      check_bool "pre-reform cast excludes 6" true
        (a.H.Coherence.correct = [ 0; 1; 2; 3; 4; 5 ]);
      check_bool "post-reform cast includes 6" true
        (b.H.Coherence.correct = [ 0; 1; 2; 3; 4; 5; 6 ]);
      check_bool "split flagged" true (bounds b = (0.4, 1.0, true))
  | ivs -> Alcotest.failf "expected 2 intervals, got %d" (List.length ivs)

let test_reform_of_correct_node_is_noop () =
  let events = [ H.Scenario.Reform { node = 2; at = 0.4 } ] in
  match intervals ~events () with
  | [ i ] -> check_bool "unbroken" true (bounds i = (0.0, 1.0, false))
  | ivs -> Alcotest.failf "expected 1 interval, got %d" (List.length ivs)

let test_unmasked_loss_ends_coherence () =
  let events = [ H.Scenario.Loss { at = 0.3; p = 0.2 } ] in
  (match intervals ~events () with
  | [ i ] -> check_bool "only the prefix" true (bounds i = (0.0, 0.3, false))
  | ivs -> Alcotest.failf "expected 1 interval, got %d" (List.length ivs));
  (* the transport's contract is to mask exactly this *)
  let transport = Ssba_transport.Transport.config ~rto:(3.0 *. params7.Params.delta) () in
  match intervals ~events ~transport () with
  | [ i ] -> check_bool "masked: unbroken" true (bounds i = (0.0, 1.0, false))
  | ivs -> Alcotest.failf "expected 1 interval, got %d" (List.length ivs)

let test_interval_at () =
  let events = [ H.Scenario.Scramble { at = 0.3; values; net_garbage = 0 } ] in
  let ivs = intervals ~events () in
  (match H.Coherence.interval_at ivs 0.1 with
  | Some i -> check_bool "first" true (bounds i = (0.0, 0.3, false))
  | None -> Alcotest.fail "no interval at 0.1");
  (match H.Coherence.interval_at ivs 0.3 with
  | Some i -> check_bool "boundary belongs to the opener" true
      (bounds i = (0.3, 1.0, true))
  | None -> Alcotest.fail "no interval at 0.3");
  check_bool "past the horizon" true (H.Coherence.interval_at ivs 1.5 = None)

let test_stabilized_after_derivation () =
  let stb = params7.Params.delta_stb in
  check_float "calm scenario: 0" 0.0 (H.Checks.stabilized_after (sc ()));
  let events =
    [
      H.Scenario.Scramble { at = 0.1; values; net_garbage = 0 };
      H.Scenario.Drop_prob { at = 0.2; p = 0.3 };
      H.Scenario.Heal { at = 0.4 } (* heals never count *);
    ]
  in
  check_float "last disruptive + Delta_stb" (0.2 +. stb)
    (H.Checks.stabilized_after (sc ~events ~horizon:2.0 ()))

(* ----- the per-disruption recovery oracle over real runs ---------------- *)

let run_chaos ?(cast = []) ?(seed = 11) pattern =
  let correct =
    List.filter (fun i -> not (List.mem_assoc i cast)) (List.init 7 Fun.id)
  in
  let byzantine = List.map fst cast in
  let sched =
    H.Chaos.schedule ~episodes:2 pattern ~params:params7 ~correct ~byzantine
  in
  let scenario =
    H.Scenario.default ~name:"chaos" ~seed ~cast ~events:sched.H.Chaos.events
      ~proposals:sched.H.Chaos.proposals ~horizon:sched.H.Chaos.horizon params7
  in
  H.Runner.run scenario

let check_report res =
  let reports = H.Checks.recovery_report res in
  let stb = params7.Params.delta_stb in
  List.iter
    (fun (r : H.Checks.episode_report) ->
      check_bool "interval clean" true (r.H.Checks.violations = []);
      if r.H.Checks.interval.H.Coherence.after_disruption then begin
        match r.H.Checks.recovery_time with
        | Some rt ->
            check_bool "recovered within Delta_stb" true (rt <= stb);
            check_bool "recovery takes some time" true (rt > 0.0)
        | None -> Alcotest.fail "recovery unmeasured despite in-window probe"
      end)
    reports;
  reports

let test_periodic_scramble_recovers () =
  let res = run_chaos H.Chaos.Periodic_scramble in
  let reports = check_report res in
  check_int "three intervals (calm prefix + 2 episodes)" 3 (List.length reports);
  (* the measured stabilization times landed in the metrics registry *)
  List.iteri
    (fun idx (r : H.Checks.episode_report) ->
      match r.H.Checks.recovery_time with
      | Some rt ->
          check_float
            (Printf.sprintf "gauge recovery.time.%d" idx)
            rt
            (Option.get
               (Ssba_sim.Metrics.find_gauge res.H.Runner.metrics
                  (Printf.sprintf "recovery.time.%d" idx)))
      | None -> ())
    reports

let test_crash_wave_recovers () = ignore (check_report (run_chaos H.Chaos.Crash_wave))
let test_surge_cycle_recovers () = ignore (check_report (run_chaos H.Chaos.Surge_cycle))

let test_rejoin_recovers () =
  let cast = [ (6, Ssba_adversary.Catalog.Silent) ] in
  let res = run_chaos ~cast H.Chaos.Rejoin in
  let reports = check_report res in
  check_bool "run ends with 6 in the correct set" true
    (res.H.Runner.correct = List.init 7 Fun.id);
  let last = List.nth reports (List.length reports - 1) in
  check_bool "last interval's cast includes the rejoiner" true
    (List.mem 6 last.H.Checks.interval.H.Coherence.correct);
  (* the reformed node really runs the protocol: it returns for the probes
     proposed after its reform *)
  check_bool "reformed node produced returns" true
    (List.exists (fun (r : Types.return_info) -> r.Types.node = 6)
       res.H.Runner.returns)

(* The point of per-interval checking: divergent returns inside an early
   coherent window that the old "after the last disruption" cutoff never
   looked at. A scramble's garbage can forge local quorums and briefly
   diverge; checking the interval from its start (stb = 0, the deliberately
   weakened knob) must catch that on some seed, while the whole-run check
   anchored after the *last* disruption stays green — the exact blind spot
   this PR removes. *)
let test_weakened_stb_catches_early_divergence () =
  let stb = params7.Params.delta_stb in
  let d = params7.Params.d in
  let s1 = 0.05 in
  let s2 = s1 +. (0.5 *. stb) in
  (* proposals landing in the scramble's garbage epoch, where forged local
     quorums produce genuinely divergent decisions *)
  let early_div_scenario seed =
    H.Scenario.default ~name:"early-div" ~seed
      ~events:
        [
          H.Scenario.Scramble { at = s1; values; net_garbage = 300 };
          H.Scenario.Scramble { at = s2; values; net_garbage = 300 };
        ]
      ~proposals:
        [
          { H.Scenario.g = 0; v = "e0"; at = s1 +. (2.0 *. d) };
          { H.Scenario.g = 1; v = "e1"; at = s1 +. (4.0 *. d) };
          { H.Scenario.g = 2; v = "e2"; at = s1 +. (6.0 *. d) };
        ]
      ~horizon:(s2 +. stb +. (3.0 *. params7.Params.delta_agr))
      params7
  in
  let caught = ref None in
  List.iter
    (fun seed ->
      if !caught = None then begin
        let scenario = early_div_scenario seed in
        let res = H.Runner.run scenario in
        let old_check =
          H.Checks.pairwise_agreement
            ~after:(H.Checks.stabilized_after scenario)
            res
        in
        let weakened = H.Checks.recovery_report ~stb:0.0 res in
        let early_fails =
          match weakened with
          | _ :: (second : H.Checks.episode_report) :: _ ->
              second.H.Checks.interval.H.Coherence.t_start = s1
              && second.H.Checks.violations <> []
          | _ -> false
        in
        if old_check = [] && early_fails then caught := Some seed
      end)
    [ 201; 202; 203; 204; 205; 206; 207; 208 ];
  (match !caught with
  | Some _ -> ()
  | None ->
      Alcotest.fail "no seed diverges early, invisibly to the old check");
  (* and at the paper's actual Delta_stb that interval is too short for its
     check window to open, so the sound report stays green on the exact
     scenario the weakened knob flagged *)
  let res = H.Runner.run (early_div_scenario (Option.get !caught)) in
  List.iter
    (fun (r : H.Checks.episode_report) ->
      check_bool "sound report is green" true (r.H.Checks.violations = []))
    (H.Checks.recovery_report res)

(* Fault composition (regression pin): crash during a surged period, then
   Recover and Scramble at the same instant. The timeline must read: coherent
   prefix, one long incoherent span (surge, then crash outliving the
   restore), and a post-disruption interval opening at the shared
   recover/scramble instant. And the run must keep exact message
   conservation through the composed faults. *)
let test_fault_composition_timeline_and_conservation () =
  let events =
    [
      H.Scenario.Delay_surge { at = 0.02; factor = 2.5 };
      H.Scenario.Crash { node = 1; at = 0.04 };
      H.Scenario.Delay_restore { at = 0.06 };
      H.Scenario.Recover { node = 1; at = 0.08 };
      H.Scenario.Scramble { at = 0.08; values; net_garbage = 50 };
    ]
  in
  let horizon = 0.08 +. params7.Params.delta_stb +. (3.0 *. params7.Params.delta_agr) in
  let proposals =
    [
      { H.Scenario.g = 0; v = "mid-surge"; at = 0.03 };
      { H.Scenario.g = 2; v = "after"; at = 0.08 +. params7.Params.delta_stb };
    ]
  in
  let scenario =
    H.Scenario.default ~name:"composed" ~seed:17 ~events ~proposals ~horizon
      params7
  in
  (match H.Coherence.intervals scenario with
  | [ a; b ] ->
      check_bool "coherent prefix" true (bounds a = (0.0, 0.02, false));
      check_bool "reopens at the shared recover+scramble instant" true
        (bounds b = (0.08, horizon, true))
  | ivs -> Alcotest.failf "expected 2 intervals, got %d" (List.length ivs));
  let res = H.Runner.run scenario in
  check_bool "conservation through composed faults" true
    (H.Checks.network_conservation res).H.Checks.ok;
  List.iter
    (fun (r : H.Checks.episode_report) ->
      check_bool "composed run judged clean" true (r.H.Checks.violations = []))
    (H.Checks.recovery_report res)

let suite =
  [
    case "calm run is one interval" test_calm_is_one_interval;
    case "crash/recover splits" test_crash_recover_splits;
    case "Byzantine crash is not incoherence" test_byzantine_crash_is_not_incoherence;
    case "scramble is a point disruption" test_scramble_is_a_point_disruption;
    case "surge/restore" test_surge_and_restore;
    case "reform grows the correct set" test_reform_grows_the_correct_set;
    case "reform of a correct node is a no-op" test_reform_of_correct_node_is_noop;
    case "unmasked loss ends coherence" test_unmasked_loss_ends_coherence;
    case "interval_at" test_interval_at;
    case "stabilized_after derivation" test_stabilized_after_derivation;
    case "periodic scramble recovers" test_periodic_scramble_recovers;
    case "crash wave recovers" test_crash_wave_recovers;
    case "surge cycle recovers" test_surge_cycle_recovers;
    case "rejoin recovers" test_rejoin_recovers;
    case "weakened stb catches early divergence"
      test_weakened_stb_catches_early_divergence;
    case "fault composition: timeline + conservation"
      test_fault_composition_timeline_and_conservation;
  ]
