(* Soak tests: long runs under sustained load and attack, asserting the
   bounded-memory discipline (decay rules) and sustained correctness the
   "production" claim rests on. *)

open Helpers
open Ssba_core
module H = Ssba_harness
module Engine = Ssba_sim.Engine

let test_long_haul_recurrent_agreements () =
  (* dozens of recurrent agreements by rotating Generals under a permanent
     spammer, with a mid-run scramble; at the end: every completed agreement
     consistent, instance tables bounded, all instances quiescent *)
  let n = 7 in
  let params = Params.default n in
  let spacing = 2.0 *. params.Params.delta_0 in
  let rounds = 40 in
  let t_scramble = 0.05 +. (float_of_int (rounds / 2) *. spacing) in
  let proposals =
    List.init rounds (fun i ->
        {
          H.Scenario.g = i mod (n - 1);
          v = Printf.sprintf "epoch-%d" i;
          at = 0.05 +. (float_of_int i *. spacing);
        })
  in
  let horizon =
    0.05 +. (float_of_int rounds *. spacing) +. params.Params.delta_stb
  in
  let sc =
    H.Scenario.default ~name:"soak" ~seed:71
      ~cast:
        [ (n - 1, Ssba_adversary.Catalog.Spam { period_d = 10.0; values = [ "junk1"; "junk2" ] }) ]
      ~events:
        [ H.Scenario.Scramble { at = t_scramble; values = [ "x"; "epoch-3" ]; net_garbage = 100 } ]
      ~proposals ~horizon params
  in
  let res = H.Runner.run sc in
  (* agreement after the post-scramble stabilization point, derived from the
     event schedule rather than hand-computed *)
  check_bool "no violation after re-stabilization" true
    (H.Checks.pairwise_agreement ~after:(H.Checks.stabilized_after sc) res = []);
  (* most epochs decided unanimously (those colliding with the scramble
     window may legitimately fail) *)
  let unanimous =
    List.length
      (List.filter
         (fun (e : H.Metrics.episode) ->
           match H.Checks.agreement ~correct:res.H.Runner.correct e with
           | H.Checks.Unanimous _ -> true
           | _ -> false)
         (H.Metrics.episodes res))
  in
  check_bool
    (Printf.sprintf "most epochs decided (%d/%d)" unanimous rounds)
    true
    (unanimous >= rounds - 5);
  (* bounded memory: the per-node instance table never exceeds n *)
  List.iter
    (fun (_, node) ->
      check_bool "instance table bounded by n" true (Node.instance_count node <= n))
    res.H.Runner.nodes

let test_large_cluster_integration () =
  (* one agreement at n = 31 (f = 10) with the full fault budget split
     between crashed and spamming nodes *)
  let n = 31 in
  let params = Params.default n in
  let module C = Ssba_adversary.Catalog in
  let cast =
    List.init 5 (fun i -> (n - 1 - i, C.Silent))
    @ List.init 5 (fun i -> (n - 6 - i, C.Spam { period_d = 10.0; values = [ "z" ] }))
  in
  let sc =
    H.Scenario.default ~name:"large" ~seed:72 ~cast
      ~proposals:[ { H.Scenario.g = 0; v = "big"; at = 0.05 } ]
      ~horizon:(0.05 +. (3.0 *. params.Params.delta_agr))
      params
  in
  let res = H.Runner.run sc in
  let deciders =
    List.filter
      (fun (r : Types.return_info) -> r.Types.outcome = Types.Decided "big")
      res.H.Runner.returns
  in
  check_int "all 21 correct nodes decide at n=31" 21 (List.length deciders);
  check_bool "agreement holds" true (H.Checks.pairwise_agreement res = [])

let test_minimal_cluster () =
  (* the smallest Byzantine-tolerant system: n = 4, f = 1 *)
  let c = Cluster.make ~n:4 ~skip:[ 3 ] () in
  Engine.schedule c.Cluster.engine ~at:0.05 (fun () ->
      ignore (Node.propose (Cluster.node c 0) "v"));
  Cluster.run c;
  check_int "3 of 4 decide with 1 crashed" 3
    (List.length (Cluster.decided_values c))

(* SSBA_SOAK_RUNS / SSBA_SOAK_JOBS scale the two batches below without a
   recompile: e.g. `SSBA_SOAK=1 SSBA_SOAK_RUNS=10000 SSBA_SOAK_JOBS=4 dune
   runtest` runs the 10k-scenario churn soak one engine per core. The
   campaign summary is byte-identical at every job count, so the jobs knob
   buys wall-clock only. *)
let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let soak_jobs () = env_int "SSBA_SOAK_JOBS" 1

(* A deep fuzzing batch: 500 scenarios with a larger cast/disruption budget
   than the tier-1 smoke run. Gated behind SSBA_SOAK=1 so `dune runtest`
   stays fast; run it with `SSBA_SOAK=1 dune runtest` (or via the ssba-fuzz
   CLI directly for ad-hoc campaigns). *)
let test_fuzz_batch () =
  match Sys.getenv_opt "SSBA_SOAK" with
  | Some "1" ->
      let module F = Ssba_fuzz in
      let runs = env_int "SSBA_SOAK_RUNS" 500 in
      let config =
        {
          F.Campaign.default_config with
          F.Campaign.seed = 2026;
          runs;
          gen =
            {
              F.Gen.default_config with
              F.Gen.max_n = 13;
              max_cast = 4;
              max_disruptions = 3;
            };
        }
      in
      let s = F.Campaign.run ~jobs:(soak_jobs ()) config in
      List.iter
        (fun (fc : F.Campaign.failure_case) ->
          List.iter
            (fun f ->
              Fmt.epr "soak iteration %d: %a@." fc.F.Campaign.index
                F.Oracle.pp_failure f)
            fc.F.Campaign.report.F.Oracle.failures)
        s.F.Campaign.failed;
      check_int "no oracle failures over the soak corpus" 0
        (List.length s.F.Campaign.failed)
  | _ -> Fmt.epr "fuzz batch skipped (set SSBA_SOAK=1 to enable)@."

(* The churn counterpart: 200 continuous-churn scenarios through the
   per-interval recovery oracle, same SSBA_SOAK=1 gate. Seed 2027 — the
   batch that used to hit the initiator-accept uniqueness gap under a
   fast-equivocating flip-flop General. The session-keyed core closed it
   (see the 2027/133 pin in test_fuzz.ml), so the once-poisoned batch now
   doubles as the regression gate for the fix. *)
let test_churn_batch () =
  match Sys.getenv_opt "SSBA_SOAK" with
  | Some "1" ->
      let module F = Ssba_fuzz in
      let runs = env_int "SSBA_SOAK_RUNS" 200 in
      let config =
        {
          F.Campaign.default_config with
          F.Campaign.seed = 2027;
          runs;
          gen = { F.Gen.chaos_config with F.Gen.max_cast = 2 };
        }
      in
      let s = F.Campaign.run ~jobs:(soak_jobs ()) config in
      List.iter
        (fun (fc : F.Campaign.failure_case) ->
          List.iter
            (fun f ->
              Fmt.epr "churn iteration %d: %a@." fc.F.Campaign.index
                F.Oracle.pp_failure f)
            fc.F.Campaign.report.F.Oracle.failures)
        s.F.Campaign.failed;
      check_int "no oracle failures over the churn corpus" 0
        (List.length s.F.Campaign.failed)
  | _ -> Fmt.epr "churn batch skipped (set SSBA_SOAK=1 to enable)@."

let suite =
  [
    slow_case "long-haul recurrent agreements" test_long_haul_recurrent_agreements;
    slow_case "large cluster (n=31)" test_large_cluster_integration;
    case "minimal cluster (n=4, f=1)" test_minimal_cluster;
    slow_case "fuzzer batch (SSBA_SOAK=1)" test_fuzz_batch;
    slow_case "churn batch (SSBA_SOAK=1)" test_churn_batch;
  ]
