(* Tests for the bounded exhaustive checker: state-hash canonicalization
   under partial-order reduction, POR-vs-full verdict equivalence, the
   weakened-checker sensitivity run that rediscovers the IA-4 split and
   exports it as a replayable fuzz spec, the knife gate, the replay lemma
   default-spine reuse rests on, and a pinned digest of every report. *)

open Helpers
module Mc = Ssba_mc.Mc
module Config = Ssba_mc.Config
module F = Ssba_fuzz

let keys l = List.map fst l

(* The whole report, counterexample run and its fingerprints included, as
   one digest. The pinned values were taken from the explorer that executed
   every prefix it expanded; expanding default extensions from the parent's
   spine must not move any of them. *)
let report_digest (r : Mc.report) =
  Digest.to_hex (Digest.string (Marshal.to_string r [ Marshal.No_sharing ]))

let check_report name expected r =
  check_str (name ^ " report pinned") expected (report_digest r)

(* --- determinism: the run is a pure function of (config, por, vector) --- *)

let test_run_vector_deterministic () =
  let run () =
    let r = Mc.run_vector (Config.smoke ()) ~por:true [| 1; 0; 1 |] in
    (r.Mc.choices, r.Mc.fingerprints, r.Mc.violations, r.Mc.events)
  in
  check_bool "identical runs" true (run () = run ())

(* --- default-spine reuse: the run of P @ [0] is the run of P ---

   The explorer never executes a prefix ending in option 0: it expands it
   from the parent's run. That is sound only if the default extension
   replays its prefix step for step. Checked for every smoke prefix
   breadth-first search reaches to depth 4, under both POR modes; only
   [next] (one choice point further on) and [prefix] may differ. *)
let test_default_extension_replays_prefix () =
  let cfg = Config.smoke () in
  let same (a : Mc.run) (b : Mc.run) =
    a.Mc.choices = b.Mc.choices
    && a.Mc.fingerprints = b.Mc.fingerprints
    && a.Mc.sends = b.Mc.sends
    && a.Mc.transcript = b.Mc.transcript
    && a.Mc.returns = b.Mc.returns
    && a.Mc.events = b.Mc.events
    && a.Mc.violations = b.Mc.violations
    && a.Mc.splits = b.Mc.splits
  in
  let checked = ref 0 in
  let rec visit ~por prefix =
    let r = Mc.run_vector cfg ~por prefix in
    if not (same r (Mc.run_vector cfg ~por (Array.append prefix [| 0 |]))) then
      Alcotest.failf "por=%b: %a @ [0] is not the run of its prefix" por
        Mc.pp_prefix prefix;
    incr checked;
    match r.Mc.next with
    | Some (_, options, _) when Array.length prefix < 4 ->
        for i = 0 to options - 1 do
          visit ~por (Array.append prefix [| i |])
        done
    | _ -> ()
  in
  visit ~por:true [||];
  visit ~por:false [||];
  check_int "prefixes checked" 70 !checked

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
    && keys on.Mc.splits = keys off.Mc.splits);
  check_report "commute por=on" "590808960d3edcfef47b94446d00ede4" on;
  check_report "commute por=off" "e351976e249484db21d223466354110c" off

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
  check_bool "POR reduction factor > 1" true (off.Mc.explored > on.Mc.explored);
  check_report "smoke por=on" "d735b1a88a153b644e3d8c32d715b80b" on;
  check_report "smoke por=off" "ca5e36c13b1ca1f5b8f1a529bc196e7e" off;
  (* a depth-bounded run (frontier > 0) and a truncated one *)
  check_report "smoke depth=5" "75d6a5b1e5febdbabee9f67a902b6d47"
    (Mc.explore (Config.smoke ()) ~por:true ~depth:5);
  check_report "smoke max_runs=300" "0bb72a660286857475187a7308f5aa04"
    (Mc.explore ~max_runs:300 (Config.smoke ()) ~por:true ~depth:24)

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
  check_report "split-on por=on" "83d9a814649b82c439663959b53ca32d" guarded;
  check_report "split-off por=on" "080fe8179c7e0f65f5c7ac8acfd83644" open_run;
  check_report "split-on por=off" "a26223ab954b533648941adc0ac444dd"
    (Mc.explore (Config.split ~blackout:true ()) ~por:false ~depth:24);
  check_report "split-off por=off" "42a21ad9ace304fd1a9d4e08fb4e96d9"
    (Mc.explore cfg ~por:false ~depth:24);
  match open_run.Mc.counterexample with
  | None -> Alcotest.fail "no counterexample run recorded"
  | Some run -> (
      check_int "the counterexample fingerprints every choice point"
        (List.length run.Mc.choices) (List.length run.Mc.fingerprints);
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

(* --- the knife space: widen exhausts clean, legacy strands ---

   The in-tree twin of `ssba-mc --config knife --smoke`: both gate variants
   under both POR modes, each report pinned. *)
let test_knife_gate () =
  let knife r_slack =
    let base = Config.knife () in
    {
      base with
      Config.params = Ssba_core.Params.with_r_slack base.Config.params r_slack;
    }
  in
  let explore r_slack ~por = Mc.explore (knife r_slack) ~por ~depth:24 in
  let widen_on = explore Ssba_core.Params.Widen ~por:true in
  let legacy_on = explore Ssba_core.Params.Legacy ~por:true in
  check_bool "widen: exhausted clean" true
    (widen_on.Mc.frontier = 0 && widen_on.Mc.violations = []
   && widen_on.Mc.splits = []);
  check_bool "legacy: the stranded abort is found" true
    (legacy_on.Mc.violations <> []);
  check_report "knife-widen por=on" "69a6a381c9eeb95cbc6722a6d6824b55" widen_on;
  check_report "knife-legacy por=on" "efc11d2874792485f3b8b665d016292e" legacy_on;
  check_report "knife-widen por=off" "bd12ea4d24c074913942b157d515472f"
    (explore Ssba_core.Params.Widen ~por:false);
  check_report "knife-legacy por=off" "3bf8258e378634129270261886411517"
    (explore Ssba_core.Params.Legacy ~por:false)

(* --- fingerprint text pins ---

   The report pins check exact fingerprint text only along the split
   counterexample. These hash every choice point's world fingerprint along
   smoke and knife vectors (the in-flight listing in send order with POR
   off, sorted with it on), so a change to how a fingerprint is written must
   keep it byte for byte. The values were taken from the Printf writers. *)
let test_fingerprints_pinned () =
  let pin name cfg ~por vector expected =
    let r = Mc.run_vector cfg ~por vector in
    check_str (name ^ " fingerprints pinned") expected
      (Digest.to_hex (Digest.string (String.concat "" r.Mc.fingerprints)))
  in
  let smoke = Config.smoke () and knife = Config.knife () in
  pin "smoke [] por=on" smoke ~por:true [||] "444dc7eef316df5ae0b7f5c383460b9c";
  pin "smoke [] por=off" smoke ~por:false [||] "84151a6a788d37d39bd1231ab6481d3b";
  pin "smoke [1;1;0;1] por=on" smoke ~por:true [| 1; 1; 0; 1 |]
    "3716a631af2552cf96ab39c0f0d16cd3";
  pin "smoke [1;1;0;1] por=off" smoke ~por:false [| 1; 1; 0; 1 |]
    "98c9083b100c361e38277c1c5c4b8f6d";
  pin "knife [] por=on" knife ~por:true [||] "2f6db94fc412edc4bb72764cb050b99b";
  pin "knife [0;1;0;1;1;2;4] por=off" knife ~por:false [| 0; 1; 0; 1; 1; 2; 4 |]
    "e38a121bbd1741774ee11441ec16a683"

(* --- two sends on one link at one instant ---

   Byzantine node 3 sends node 0 an Initiator and then a Support, on one
   link with one delay, so both arrive at the same time. The Initiator's
   delivery makes node 0 support the value, and node 0's supports branch,
   so a choice point falls between the two deliveries. Its fingerprint must
   list the Support still in flight: a delivery clears the first undelivered
   send (in send order) that matches its link and arrival time, which is the
   one the network delivered. Never regenerate the values. *)
let same_instant () =
  let params = Ssba_core.Params.default ~f:1 4 in
  let d = params.Ssba_core.Params.d in
  let x = "x" in
  {
    Config.name = "same-instant";
    params;
    byz =
      [
        {
          Config.byz_id = 3;
          steps =
            [
              {
                Config.step_at = d;
                step_label = "pair";
                options =
                  [
                    [
                      (Some 0, Ssba_core.Types.Initiator { g = 3; v = x });
                      (Some 0, Ssba_core.Types.Ia { kind = Support; g = 3; v = x });
                    ];
                  ];
              };
            ];
        };
      ];
    proposals = [];
    session_capacity = None;
    blackout = true;
    horizon = 20.0 *. d;
    default_delay = 0.4 *. d;
    lattice = [| 0.4 *. d; 1.1 *. d |];
    lattices = [];
    branch =
      (fun ~src ~dst:_ msg ->
        match msg with
        | Ssba_core.Types.Ia { kind = Support; _ } when src <> 3 ->
            Some ("S" ^ string_of_int src)
        | _ -> None);
  }

let test_same_instant_deliveries_pinned () =
  let pin ~por expected =
    let r = Mc.run_vector (same_instant ()) ~por [||] in
    check_bool "a choice point falls between the deliveries" true
      (r.Mc.fingerprints <> []);
    check_str
      (Printf.sprintf "same-instant por=%b fingerprints pinned" por)
      expected
      (Digest.to_hex (Digest.string (String.concat "" r.Mc.fingerprints)))
  in
  pin ~por:true "d4f97becabb1d487dd95b0aace4223d7";
  pin ~por:false "d4f97becabb1d487dd95b0aace4223d7"

(* The fingerprints' number writers append what [Printf]'s "%h" and "%d"
   append: on the edge cases (signed zeros, subnormals, infinities, NaNs of
   both signs, min_int) and on 200,000 random bit patterns of each. *)
let test_number_writers_exact () =
  let buf = Buffer.create 64 in
  let written write x =
    Buffer.clear buf;
    write buf x;
    Buffer.contents buf
  in
  let float x =
    let want = Printf.sprintf "%h" x in
    let got = written Ssba_sim.Fp_text.float x in
    if got <> want then
      Alcotest.failf "float %Lx: wrote %s, Printf %s" (Int64.bits_of_float x)
        got want
  in
  let int i =
    let got = written Ssba_sim.Fp_text.int i in
    if got <> string_of_int i then
      Alcotest.failf "int %d: wrote %s" i got
  in
  List.iter float
    [ 0.0; -0.0; 1.0; -1.0; 0.1; -2.5; Float.epsilon; max_float; -.max_float;
      min_float; Float.pred min_float; Int64.float_of_bits 1L;
      -.Int64.float_of_bits 1L; infinity; neg_infinity; nan; -.nan;
      Int64.float_of_bits 0x7ff0000000000001L;
      Int64.float_of_bits 0xfff8000000000001L ];
  List.iter int [ 0; 1; -1; 9; 10; -10; 99; 100; max_int; min_int; min_int + 1 ];
  let st = Random.State.make [| 24 |] in
  for _ = 1 to 200_000 do
    let bits = Random.State.bits64 st in
    float (Int64.float_of_bits bits);
    int (Int64.to_int bits);
    int (Random.State.int st 2001 - 1000)
  done

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
    case "the run of P @ [0] is the run of P" test_default_extension_replays_prefix;
    case "a scenario is data and reruns identically" test_scenario_is_data;
    case "commuting sends hash equal under POR"
      test_commuting_sends_hash_equal_under_por;
    case "POR prunes the commuted branch" test_por_prunes_commuted_branch;
    case "fingerprint text pinned on smoke and knife vectors"
      test_fingerprints_pinned;
    case "same-instant deliveries on one link pinned"
      test_same_instant_deliveries_pinned;
    case "number writers append what %h and %d append" test_number_writers_exact;
    slow_case "POR and full exploration agree on the smoke space"
      test_por_full_equivalence_smoke;
    slow_case "blackout sensitivity: split found iff guard off, replayable"
      test_split_sensitivity_and_replay;
    slow_case "knife gate: widen clean, legacy strands, reports pinned"
      test_knife_gate;
  ]
