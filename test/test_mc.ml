(* Tests for the bounded exhaustive checker: state-hash canonicalization
   under partial-order reduction, POR-vs-full verdict equivalence, and the
   weakened-checker sensitivity run that rediscovers the IA-4 split and
   exports it as a replayable fuzz spec. *)

open Helpers
module Mc = Ssba_mc.Mc
module Config = Ssba_mc.Config
module F = Ssba_fuzz

let keys l = List.map fst l

(* --- determinism: the run is a pure function of (config, por, vector) --- *)

let test_run_vector_deterministic () =
  let run () =
    let r = Mc.run_vector (Config.smoke ()) ~por:true [| 1; 0; 1 |] in
    (r.Mc.choices, r.Mc.fingerprints, r.Mc.violations, r.Mc.events)
  in
  check_bool "identical runs" true (run () = run ())

(* --- canonicalization: commuting deliveries hash equal under POR ---

   The commute probe's first menu step performs the same two sends in
   opposite order; the second step is reached while both are still in
   flight. The world fingerprint taken there must coincide under POR
   (canonically sorted in-flight set) and differ without it (raw insertion
   order). *)

let probe_fingerprint ~por vector =
  let r = Mc.run_vector (Config.commute_probe ()) ~por vector in
  match r.Mc.fingerprints with
  | [ at_order; at_probe ] -> (at_order, at_probe)
  | l -> Alcotest.failf "expected 2 choice points, saw %d" (List.length l)

let test_commuting_sends_hash_equal_under_por () =
  let o0, p0 = probe_fingerprint ~por:true [| 0; 0 |] in
  let o1, p1 = probe_fingerprint ~por:true [| 1; 0 |] in
  check_str "pre-choice state is one state" o0 o1;
  check_str "commuted in-flight sets canonicalize to one hash" p0 p1;
  let _, q0 = probe_fingerprint ~por:false [| 0; 0 |] in
  let _, q1 = probe_fingerprint ~por:false [| 1; 0 |] in
  check_bool "raw insertion order keeps them apart" true (q0 <> q1)

let test_por_prunes_commuted_branch () =
  let on = Mc.explore (Config.commute_probe ()) ~por:true ~depth:8 in
  let off = Mc.explore (Config.commute_probe ()) ~por:false ~depth:8 in
  check_bool "POR prunes the commuted subtree" true (on.Mc.pruned >= 1);
  check_int "full exploration prunes nothing here" 0 off.Mc.pruned;
  check_bool "POR explores strictly less" true (on.Mc.explored < off.Mc.explored);
  check_bool "same (empty) verdict either way" true
    (keys on.Mc.violations = keys off.Mc.violations
    && keys on.Mc.splits = keys off.Mc.splits)

(* --- POR soundness cross-check: same verdict set as full exploration ---

   Both modes exhaust the smoke config's whole choice space (frontier 0), so
   any divergence in the violation sets would falsify the reduction. *)
let test_por_full_equivalence_smoke () =
  let on = Mc.explore (Config.smoke ()) ~por:true ~depth:24 in
  let off = Mc.explore (Config.smoke ()) ~por:false ~depth:24 in
  check_bool "both exhaust the space" true
    (on.Mc.frontier = 0 && off.Mc.frontier = 0 && (not on.Mc.truncated)
   && not off.Mc.truncated);
  check_bool "verdict sets coincide" true
    (keys on.Mc.violations = keys off.Mc.violations
    && keys on.Mc.splits = keys off.Mc.splits);
  check_int "smoke space is clean" 0 (List.length on.Mc.violations);
  check_bool "POR reduction factor > 1" true (off.Mc.explored > on.Mc.explored)

(* --- sensitivity: the checker finds the split the blackout prevents ---

   With the re-initiation blackout disabled the exhaustive run must
   rediscover the IA-4 split decision (PR-6's counterexample class); with
   the guard on, the same space must contain none. The minimal
   counterexample exports as a fuzz spec whose replay reproduces the IA-4a
   violation through the completely independent Runner + Oracle path. *)
let test_split_sensitivity_and_replay () =
  let guarded = Mc.explore (Config.split ~blackout:true ()) ~por:true ~depth:24 in
  check_bool "blackout on: exhausted" true
    (guarded.Mc.frontier = 0 && not guarded.Mc.truncated);
  check_int "blackout on: no split decision reachable" 0
    (List.length guarded.Mc.splits);
  let cfg = Config.split ~blackout:false () in
  let open_run = Mc.explore cfg ~por:true ~depth:24 in
  check_bool "blackout off: exhausted" true
    (open_run.Mc.frontier = 0 && not open_run.Mc.truncated);
  check_bool "blackout off: the split is found" true (open_run.Mc.splits <> []);
  match open_run.Mc.counterexample with
  | None -> Alcotest.fail "no counterexample run recorded"
  | Some run -> (
      let spec = Mc.spec_of_run cfg run ~name:"mc-split-ce" in
      (match F.Spec.validate spec with
      | Ok () -> ()
      | Error e -> Alcotest.failf "exported spec invalid: %s" e);
      (match F.Spec.of_json (F.Spec.to_json spec) with
      | Ok spec' -> check_bool "spec round-trips through JSON" true (spec' = spec)
      | Error e -> Alcotest.failf "spec does not round-trip: %s" e);
      let _, report = F.Oracle.run spec in
      let is_ia4a (f : F.Oracle.failure) =
        f.F.Oracle.oracle = "invariants"
        && String.length f.F.Oracle.detail >= 6
        && String.sub f.F.Oracle.detail 0 6 = "IA-4a:"
      in
      check_bool "replay reproduces the IA-4a split" true
        (List.exists is_ia4a report.F.Oracle.failures))

(* A scenario is plain data: a Byzantine cast and a scripted delay marshal
   (no closure anywhere), and one compiled value reruns to the same result —
   the scripted delay's per-link counters belong to the run. The digest is
   the one the first run gave when delays and casts were closures. *)
let test_scenario_is_data () =
  let cfg = Config.smoke () in
  let spec =
    Mc.spec_of_run cfg (Mc.run_vector cfg ~por:true [| 1; 1; 0; 1 |]) ~name:"data"
  in
  let sc = F.Spec.to_scenario spec in
  check_bool "a Byzantine cast and a scripted delay" true
    (sc.Ssba_harness.Scenario.cast <> []
    &&
    match sc.Ssba_harness.Scenario.delay with
    | Ssba_net.Delay.Scripted _ -> true
    | _ -> false);
  ignore (Marshal.to_string sc []);
  let digest () = Ssba_harness.Checks.result_digest (Ssba_harness.Runner.run sc) in
  check_str "first run" "28f440615a976ba49f6f366120194995" (digest ());
  check_str "second run of the same value" "28f440615a976ba49f6f366120194995" (digest ())

let suite =
  [
    case "run vector is deterministic" test_run_vector_deterministic;
    case "a scenario is data and reruns identically" test_scenario_is_data;
    case "commuting sends hash equal under POR"
      test_commuting_sends_hash_equal_under_por;
    case "POR prunes the commuted branch" test_por_prunes_commuted_branch;
    slow_case "POR and full exploration agree on the smoke space"
      test_por_full_equivalence_smoke;
    slow_case "blackout sensitivity: split found iff guard off, replayable"
      test_split_sensitivity_and_replay;
  ]
