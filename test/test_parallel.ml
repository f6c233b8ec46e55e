(* Serial-vs-parallel determinism suite.

   The multi-core campaign driver promises that parallelism is
   unobservable: `--jobs N` must produce byte-identical campaign summaries
   (corpus digest, failure set, shrunk reproductions). These
   tests hold `--jobs 4` to its `--jobs 1` twin across all three fuzz tiers
   — on any host, including single-core ones, where the domains simply
   time-share.

   The weakened-fold test is the suite's own sensitivity check: the corpus
   digest fold is deliberately order-DEPENDENT, because that is exactly what
   detects a parallel scheduler completing iterations out of slot order. An
   order-independent fold (the tempting "just XOR the digests" refactor)
   would accept a permuted corpus — the test proves the real fold catches
   the permutation the weakened one waves through. *)

open Helpers
module F = Ssba_fuzz

(* ----- fuzz campaigns: three tiers, jobs 1 vs 4 ------------------------- *)

let tier_config gen =
  {
    F.Campaign.default_config with
    F.Campaign.seed = 42;
    runs = 20;
    gen;
    shrink = false;
  }

let failure_indices (s : F.Campaign.summary) =
  List.map (fun (fc : F.Campaign.failure_case) -> fc.F.Campaign.index)
    s.F.Campaign.failed

let check_campaign_identical name config =
  let serial = F.Campaign.run ~jobs:1 config in
  let parallel = F.Campaign.run ~jobs:4 config in
  check_str (name ^ ": corpus digest byte-identical")
    serial.F.Campaign.corpus_digest parallel.F.Campaign.corpus_digest;
  check_bool (name ^ ": failure sets equal") true
    (failure_indices serial = failure_indices parallel)

let test_fuzz_tiers () =
  check_campaign_identical "clean" (tier_config F.Gen.default_config);
  check_campaign_identical "lossy" (tier_config F.Gen.lossy_config);
  check_campaign_identical "churn" (tier_config F.Gen.chaos_config)

(* Shrinking is deferred to a serial pass in parallel mode; a failing
   campaign must still report byte-identical minimized reproductions. The
   2%-weakened Timeliness-1a deadline is the suite's standard failure
   injector — every multi-node decision trips it. *)
let test_parallel_shrink_identical () =
  let config =
    {
      F.Campaign.default_config with
      F.Campaign.seed = 4242;
      runs = 12;
      oracle =
        { F.Oracle.default_config with F.Oracle.skew_deadline_scale = 0.02 };
      shrink = true;
      max_shrink_attempts = 60;
    }
  in
  let serial = F.Campaign.run ~jobs:1 config in
  let parallel = F.Campaign.run ~jobs:4 config in
  check_str "digest equal on a failing corpus" serial.F.Campaign.corpus_digest
    parallel.F.Campaign.corpus_digest;
  check_bool "failure indices equal" true
    (failure_indices serial = failure_indices parallel);
  let shrunk_reprs (s : F.Campaign.summary) =
    List.map
      (fun (fc : F.Campaign.failure_case) ->
        match fc.F.Campaign.shrunk with
        | None -> (fc.F.Campaign.index, None)
        | Some (spec, report, _) ->
            ( fc.F.Campaign.index,
              Some (F.Spec.to_json spec, report.F.Oracle.digest) ))
      s.F.Campaign.failed
  in
  check_bool "campaign found failures to shrink" true
    (serial.F.Campaign.failed <> []);
  check_bool "shrunk reproductions byte-identical" true
    (shrunk_reprs serial = shrunk_reprs parallel)

(* ----- fold sensitivity ------------------------------------------------- *)

(* The order-independent fold a careless refactor might introduce. *)
let weakened_fold arr =
  let acc = Bytes.make 16 '\000' in
  Array.iter
    (fun d ->
      let h = Digest.string d in
      for i = 0 to 15 do
        Bytes.set acc i
          (Char.chr (Char.code (Bytes.get acc i) lxor Char.code h.[i]))
      done)
    arr;
  Digest.to_hex (Bytes.to_string acc)

let test_fold_order_sensitivity () =
  let in_order = [| "run-a"; "run-b"; "run-c" |] in
  let permuted = [| "run-b"; "run-a"; "run-c" |] in
  (* the real fold: any out-of-slot-order completion moves the digest *)
  check_bool "campaign fold detects a permuted schedule" true
    (not
       (String.equal
          (F.Campaign.digest_of_digests in_order)
          (F.Campaign.digest_of_digests permuted)));
  (* the weakened fold: blind to exactly that permutation — pinning why the
     campaign digest must stay order-dependent *)
  check_str "an order-independent fold waves the permutation through"
    (weakened_fold in_order) (weakened_fold permuted);
  (* and the fold matches the serial Buffer-based digest byte for byte *)
  let buf = Buffer.create 64 in
  Array.iter
    (fun d ->
      Buffer.add_string buf d;
      Buffer.add_char buf '\n')
    in_order;
  check_str "fold byte-compatible with the historical serial digest"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))
    (F.Campaign.digest_of_digests in_order)

let suite =
  [
    case "fuzz tiers: --jobs 4 is byte-identical" test_fuzz_tiers;
    case "parallel shrinking is byte-identical" test_parallel_shrink_identical;
    case "corpus fold is order-sensitive" test_fold_order_sensitivity;
  ]
