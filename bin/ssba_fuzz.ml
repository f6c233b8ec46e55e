(* ssba-fuzz: deterministic scenario fuzzing with shrinking and replay.

     ssba-fuzz --seed 42 --runs 500                 # a campaign
     ssba-fuzz --seed 42 --runs 500 --out corpus/   # save failures as JSON
     ssba-fuzz --replay corpus/fail-17.min.json     # re-judge one spec
     ssba-fuzz --seed 42 --iteration 17             # rebuild scenario 17

   A campaign is a pure function of its flags: the printed corpus digest is
   identical across runs and at every --jobs, so CI can pin it. Exit
   status 0 means every oracle passed; 1 means at least one failure (each is
   shrunk to a locally-minimal scenario and, with --out, saved both raw and
   minimized). *)

open Cmdliner
module F = Ssba_fuzz

let pp_failure_case ~verbose (fc : F.Campaign.failure_case) =
  Fmt.pr "@.FAILURE at iteration %d:@.  %a@." fc.F.Campaign.index F.Spec.pp
    fc.F.Campaign.spec;
  List.iter
    (fun f -> Fmt.pr "  %a@." F.Oracle.pp_failure f)
    fc.F.Campaign.report.F.Oracle.failures;
  match fc.F.Campaign.shrunk with
  | None -> ()
  | Some (spec, report, stats) ->
      Fmt.pr "  shrunk (%d attempts, %d steps) to:@.    %a@."
        stats.F.Shrink.attempts stats.F.Shrink.accepted F.Spec.pp spec;
      if verbose then
        List.iter
          (fun f -> Fmt.pr "    %a@." F.Oracle.pp_failure f)
          report.F.Oracle.failures

let cannot_write path reason =
  Fmt.epr "cannot write %s: %s@." path reason;
  exit 2

let save_failure ~dir (fc : F.Campaign.failure_case) =
  let path name = Filename.concat dir name in
  let base = Printf.sprintf "fail-%d" fc.F.Campaign.index in
  let save file spec =
    match F.Spec.save (path file) spec with
    | Ok () -> ()
    | Error e -> cannot_write (path file) e
  in
  save (base ^ ".json") fc.F.Campaign.spec;
  (match fc.F.Campaign.shrunk with
  | Some (spec, _, _) -> save (base ^ ".min.json") spec
  | None -> ());
  Fmt.pr "  saved %s@." (path (base ^ ".json"))

let replay path =
  match F.Spec.load path with
  | Error e ->
      Fmt.epr "cannot load %s: %s@." path e;
      2
  | Ok spec -> (
      Fmt.pr "replaying %a@." F.Spec.pp spec;
      let _, report = F.Oracle.run spec in
      Fmt.pr "result digest: %s@." report.F.Oracle.digest;
      match report.F.Oracle.failures with
      | [] ->
          Fmt.pr "all oracles passed@.";
          0
      | fs ->
          List.iter (fun f -> Fmt.pr "%a@." F.Oracle.pp_failure f) fs;
          1)

let rebuild ~gen seed iteration =
  let spec = F.Campaign.spec_of_iteration ~seed ~gen iteration in
  Fmt.pr "scenario %d of seed %d:@.%a@." iteration seed F.Spec.pp spec;
  Fmt.pr "%s@." (Ssba_sim.Json.to_string (F.Spec.to_json spec));
  let _, report = F.Oracle.run spec in
  Fmt.pr "result digest: %s@." report.F.Oracle.digest;
  List.iter (fun f -> Fmt.pr "%a@." F.Oracle.pp_failure f) report.F.Oracle.failures;
  if report.F.Oracle.failures = [] then 0 else 1

(* A flag value outside its domain is a usage error: one line on stderr
   and exit 2, before anything runs. Each check is written so that NaN
   fails it. *)
let check_flags ~runs ~jobs ~max_disruptions =
  let bad flag reason =
    Fmt.epr "ssba-fuzz: %s: %s@." flag reason;
    exit 2
  in
  if runs < 1 then bad "--runs" "must be >= 1";
  if jobs < 1 then bad "--jobs" "must be >= 1";
  if max_disruptions < 0 then bad "--max-disruptions" "must be >= 0"

let fuzz seed runs replay_file iteration out max_n max_disruptions lossy chaos
    overload r_slack edge_delays no_shrink verbose jobs =
  check_flags ~runs ~jobs ~max_disruptions;
  let base_gen =
    if overload then F.Gen.overload_config
    else if chaos then F.Gen.chaos_config
    else if lossy then F.Gen.lossy_config
    else F.Gen.default_config
  in
  match (replay_file, iteration) with
  | Some path, _ -> replay path
  | None, Some i -> rebuild ~gen:base_gen seed i
  | None, None ->
      let config =
        {
          F.Campaign.default_config with
          F.Campaign.seed;
          runs;
          shrink = not no_shrink;
          gen =
            {
              base_gen with
              F.Gen.max_n =
                (* the churn and overload tiers keep their own (smaller)
                   cluster caps *)
                (if chaos || overload then min (max max_n 4) base_gen.F.Gen.max_n
                 else max max_n 4);
              max_disruptions =
                (* likewise the overload tier's one-churn-group cap *)
                (if chaos || overload then
                   min max_disruptions base_gen.F.Gen.max_disruptions
                 else max_disruptions);
              disruptions = base_gen.F.Gen.disruptions && max_disruptions > 0;
              r_slack;
              edge_delays;
            };
        }
      in
      (match out with
      | Some dir when not (Sys.file_exists dir) -> (
          try Unix.mkdir dir 0o755
          with Unix.Unix_error (e, _, _) -> cannot_write dir (Unix.error_message e))
      | Some _ | None -> ());
      let progress =
        if verbose then
          Some
            (fun i spec (r : F.Oracle.report) ->
              Fmt.pr "run %4d %-24s %s@." i spec.F.Spec.name
                (if F.Oracle.failed r then "FAIL" else "ok"))
        else None
      in
      let summary = F.Campaign.run ?progress ~jobs config in
      List.iter
        (fun fc ->
          pp_failure_case ~verbose fc;
          match out with Some dir -> save_failure ~dir fc | None -> ())
        summary.F.Campaign.failed;
      Fmt.pr "%d scenarios, %d failure(s)@." runs
        (List.length summary.F.Campaign.failed);
      Fmt.pr "corpus digest: %s@." summary.F.Campaign.corpus_digest;
      if summary.F.Campaign.failed = [] then 0 else 1

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign seed.")

let runs_arg =
  Arg.(value & opt int 100 & info [ "runs" ] ~doc:"Number of scenarios to generate.")

let replay_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:"Replay one saved spec instead of fuzzing; exit 1 if it still fails.")

let iteration_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "iteration" ] ~docv:"I"
        ~doc:
          "Rebuild and judge scenario $(docv) of --seed alone (no corpus \
           needed: a failure report names its iteration).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:"Save failing specs (raw and shrunk) as JSON replay files into $(docv).")

let max_n_arg =
  Arg.(value & opt int 10 & info [ "max-n" ] ~doc:"Largest cluster size to generate.")

let max_disruptions_arg =
  Arg.(
    value & opt int 2
    & info [ "max-disruptions" ]
        ~doc:
          "Max crash/loss/partition/scramble groups per scenario (0 disables \
           environment events).")

let lossy_arg =
  Arg.(
    value & flag
    & info [ "lossy" ]
        ~doc:
          "Fuzz over persistently lossy/duplicating/reordering links with \
           the reliable transport enabled (Gen.lossy_config); transient \
           disruptions are off so Validity/Termination are checked on every \
           scenario.")

let chaos_arg =
  Arg.(
    value & flag
    & info [ "chaos" ]
        ~doc:
          "Fuzz continuous-churn schedules (Gen.chaos_config): every \
           scenario is a sequence of disruption episodes — scrambles, \
           crash/recover waves, delay surge/restore cycles, Byzantine \
           rejoins — each probed inside and after its $(b,Delta_stb) \
           recovery window, with per-episode recovery times measured and \
           bounded by the oracle.")

let overload_arg =
  Arg.(
    value & flag
    & info [ "overload" ]
        ~doc:
          "Fuzz the recurrent-agreement service under open-loop overload \
           (Gen.overload_config): arrival bursts against the \
           admission-controlled session tables, over a lossy transport with \
           optional churn. The oracle additionally asserts the bounded \
           retry queue, shed-only-under-pressure and the eventual drain \
           back out of degraded mode.")

let r_slack_arg =
  let module P = Ssba_core.Params in
  let rs_conv =
    Arg.conv
      ( (fun s ->
          match P.r_slack_of_string s with
          | Some r -> Ok r
          | None -> Error (`Msg (Fmt.str "expected legacy|widen, got %S" s))),
        fun ppf r -> Fmt.string ppf (P.r_slack_to_string r) )
  in
  Arg.(
    value & opt rs_conv P.default_r_slack
    & info [ "r-slack" ] ~docv:"legacy|widen"
        ~doc:
          "Block-R gate variant every generated scenario runs under. \
           $(b,legacy) together with --edge-delays off reproduces the \
           pre-fix corpus digests.")

let edge_delays_arg =
  let on_off =
    Arg.conv
      ( (function
        | "on" -> Ok true
        | "off" -> Ok false
        | s -> Error (`Msg (Fmt.str "expected on|off, got %S" s))),
        fun ppf b -> Fmt.string ppf (if b then "on" else "off") )
  in
  Arg.(
    value & opt on_off true
    & info [ "edge-delays" ] ~docv:"on|off"
        ~doc:
          "Sample boundary-straddling delay lattices (Edge model) and the \
           gate-edge adversary; $(b,off) restores the pre-edge generator \
           streams byte for byte.")

let no_shrink_arg =
  Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report failures unminimized.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Run scenarios on $(docv) domains (cores). Every iteration is a \
           pure function of (seed, i) and the corpus digest folds results \
           in iteration order, so the summary is byte-identical to --jobs 1.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose" ] ~doc:"Print every scenario verdict.")

let cmd =
  let doc = "deterministic scenario fuzzing for ss-Byz-Agree" in
  Cmd.v
    (Cmd.info "ssba-fuzz" ~doc)
    Term.(
      const fuzz $ seed_arg $ runs_arg $ replay_arg
      $ iteration_arg $ out_arg $ max_n_arg $ max_disruptions_arg $ lossy_arg
      $ chaos_arg $ overload_arg $ r_slack_arg $ edge_delays_arg
      $ no_shrink_arg $ verbose_arg $ jobs_arg)

let () = exit (Cmd.eval' cmd)
