(* ssba-mc: bounded exhaustive checking of the protocol core on tiny worlds.

     ssba-mc --config smoke --depth 24              # explore, print report
     ssba-mc --config split --blackout off --export ce.json
                                                    # hunt the IA-4 split and
                                                    # pin it as a replay file
     ssba-mc --smoke                                # the CI gate: smoke config
                                                    # under both POR modes,
                                                    # zero violations, POR
                                                    # factor > 1, equal sets
     ssba-mc --config knife --r-slack legacy        # rediscover the 7404/173
                                                    # stranded abort
     ssba-mc --config knife --smoke                 # the knife gate: clean
                                                    # under the default gate,
                                                    # >= 1 violation under
                                                    # legacy, POR-equivalent
                                                    # verdicts throughout

   Exit status 0 means the explored space met the config's expectation
   (smoke/split-blackout-on/knife-default: no violations and no splits; split
   with the blackout off and knife under --r-slack legacy: the violation IS
   found — absence is the failure). Exit status 2: a truncated exploration,
   an unknown --config, or --smoke given a flag it does not honour. *)

open Cmdliner
module Mc = Ssba_mc.Mc
module Config = Ssba_mc.Config
module P = Ssba_core.Params

let key_of (s, _) = s

let apply_r_slack cfg r_slack =
  { cfg with Config.params = P.with_r_slack cfg.Config.params r_slack }

let explore_and_report cfg ~por ~depth ~max_runs =
  let r = Mc.explore ~max_runs cfg ~por ~depth in
  Fmt.pr "%a" Mc.pp_report r;
  r

let export_counterexample cfg (r : Mc.report) path =
  match r.Mc.counterexample with
  | None -> Fmt.pr "no counterexample to export@."
  | Some run ->
      let spec = Mc.spec_of_run cfg run ~name:(Filename.basename path) in
      (match Ssba_fuzz.Spec.save path spec with
      | Ok () -> ()
      | Error e ->
          Fmt.epr "cannot write %s: %s@." path e;
          exit 2);
      Fmt.pr "counterexample (prefix %a) saved to %s@." Mc.pp_prefix
        run.Mc.prefix path;
      Fmt.pr "replay with: ssba_fuzz --replay %s@." path

(* Verdicts per config. [smoke] must be clean outright. [split] is a
   sensitivity check on *split decisions* only: the capacity-2 scarcity it
   runs under strands correct sessions through eviction with or without the
   blackout, so relay/coverage oracle noise is expected either way — what the
   knob controls is whether the IA-4 split itself is reachable. *)
let run_one config blackout r_slack por depth max_runs export =
  let cfg, kind =
    match config with
    | "smoke" -> (Config.smoke (), `Clean)
    | "split" -> (Config.split ~blackout (), `Split)
    | _ (* "knife": [main] rejects any other name *) -> (Config.knife (), `Knife)
  in
  let cfg = apply_r_slack cfg r_slack in
  let r = explore_and_report cfg ~por ~depth ~max_runs in
  (match export with None -> () | Some path -> export_counterexample cfg r path);
  if r.Mc.truncated then begin
    Fmt.pr "exploration truncated by --max-runs: no verdict@.";
    2
  end
  else if kind = `Knife then
    (* The knife verdict inverts with the gate variant: the legacy gate must
       rediscover the 7404/173-class stranded abort somewhere in the space;
       either fixed variant must exhaust it clean. *)
    if r_slack = P.Legacy then
      if r.Mc.violations <> [] then begin
        Fmt.pr "verdict: stranded abort rediscovered under the legacy gate \
                (as expected)@.";
        0
      end
      else begin
        Fmt.pr "verdict: FAILED to rediscover the stranded abort under the \
                legacy gate@.";
        1
      end
    else if r.Mc.violations = [] && r.Mc.splits = [] then begin
      Fmt.pr "verdict: knife space exhausts clean under the %s gate@."
        (P.r_slack_to_string r_slack);
      0
    end
    else begin
      Fmt.pr "verdict: VIOLATIONS under the %s gate@."
        (P.r_slack_to_string r_slack);
      1
    end
  else if kind = `Split then
    if blackout then
      if r.Mc.splits = [] then begin
        Fmt.pr "verdict: no split decision reachable with the blackout on@.";
        0
      end
      else begin
        Fmt.pr "verdict: SPLIT DECISION despite the blackout@.";
        1
      end
    else if r.Mc.splits <> [] then begin
      Fmt.pr "verdict: split decision found (as expected with the blackout \
              off)@.";
      0
    end
    else begin
      Fmt.pr "verdict: FAILED to find the expected split decision@.";
      1
    end
  else if r.Mc.violations = [] && r.Mc.splits = [] then begin
    Fmt.pr "verdict: no oracle violations over the explored space@.";
    0
  end
  else begin
    Fmt.pr "verdict: VIOLATIONS in a configuration expected clean@.";
    1
  end

(* A gate's verdict holds only for a space it exhausted: choice points left
   beyond the depth bound are unexplored runs. *)
let check_exhausted check ~depth (on : Mc.report) (off : Mc.report) =
  check
    (on.Mc.frontier = 0 && off.Mc.frontier = 0)
    (Fmt.str
       "exploration not exhausted: frontier %d (POR on), %d (POR off) at \
        --depth %d; raise --depth"
       on.Mc.frontier off.Mc.frontier depth)

(* The CI gate: exhaust the smoke config under both POR modes. Passing means
   an exhausted space (no truncation, frontier 0) and zero violations either
   way, the same verdict set (POR soundness cross-check), and a reduction
   factor strictly above 1. *)
let run_smoke depth max_runs =
  let on = explore_and_report (Config.smoke ()) ~por:true ~depth ~max_runs in
  let off = explore_and_report (Config.smoke ()) ~por:false ~depth ~max_runs in
  let factor = float_of_int off.Mc.explored /. float_of_int on.Mc.explored in
  Fmt.pr "POR reduction factor: %.2fx (%d -> %d runs)@." factor
    off.Mc.explored on.Mc.explored;
  let problems = ref [] in
  let check cond msg = if not cond then problems := msg :: !problems in
  check (not on.Mc.truncated && not off.Mc.truncated) "exploration truncated";
  check_exhausted check ~depth on off;
  check (on.Mc.violations = []) "violations under POR";
  check (off.Mc.violations = []) "violations under full exploration";
  check (on.Mc.splits = []) "split decisions under POR";
  check (off.Mc.splits = []) "split decisions under full exploration";
  check
    (List.map key_of on.Mc.violations = List.map key_of off.Mc.violations
    && List.map key_of on.Mc.splits = List.map key_of off.Mc.splits)
    "POR and full exploration disagree on the verdict set";
  check (factor > 1.0) "POR reduction factor not > 1";
  match !problems with
  | [] ->
      Fmt.pr "smoke gate passed@.";
      0
  | ps ->
      List.iter (fun p -> Fmt.pr "smoke gate FAILED: %s@." p) ps;
      1

(* The knife gate (ISSUE 8): the same config explored under the shipped
   default gate and under --r-slack legacy, each in both POR modes. Passing
   means the default exhausts clean, the legacy gate rediscovers at least one
   stranded-abort violation, and POR never changes a verdict set; each half
   must exhaust its space. *)
let run_knife depth max_runs =
  let half label r_slack ~expect_violation =
    let cfg = apply_r_slack (Config.knife ()) r_slack in
    Fmt.pr "--- knife under the %s gate ---@." label;
    let on = explore_and_report cfg ~por:true ~depth ~max_runs in
    let off = explore_and_report cfg ~por:false ~depth ~max_runs in
    let problems = ref [] in
    let check cond msg =
      if not cond then problems := Fmt.str "%s: %s" label msg :: !problems
    in
    check (not on.Mc.truncated && not off.Mc.truncated) "exploration truncated";
    check_exhausted check ~depth on off;
    check
      (List.map key_of on.Mc.violations = List.map key_of off.Mc.violations
      && List.map key_of on.Mc.splits = List.map key_of off.Mc.splits)
      "POR and full exploration disagree on the verdict set";
    if expect_violation then
      check (on.Mc.violations <> [])
        "expected >= 1 stranded-abort violation, found none"
    else begin
      check (on.Mc.violations = []) "violations in a space expected clean";
      check (on.Mc.splits = []) "split decisions in a space expected clean"
    end;
    !problems
  in
  let problems =
    half (P.r_slack_to_string P.default_r_slack) P.default_r_slack
      ~expect_violation:false
    @ half "legacy" P.Legacy ~expect_violation:true
  in
  match problems with
  | [] ->
      Fmt.pr "knife gate passed@.";
      0
  | ps ->
      List.iter (fun p -> Fmt.pr "knife gate FAILED: %s@." p) ps;
      1

(* --smoke fixes the config's knobs itself: a flag it would not honour is a
   usage error (exit 2), never a silent pass. *)
let main config blackout r_slack por depth max_runs export smoke =
  if not (List.mem config [ "smoke"; "split"; "knife" ]) then begin
    Fmt.epr "ssba-mc: --config: unknown config %S (smoke|split|knife)@." config;
    2
  end
  else if smoke then
    match
      List.filter_map
        (fun (flag, given) -> if given then Some flag else None)
        [
          ("--config " ^ config, config <> "smoke" && config <> "knife");
          ("--blackout", blackout <> None);
          ("--r-slack", r_slack <> None);
          ("--por", por <> None);
          ("--export", export <> None);
        ]
    with
    | [] ->
        if config = "knife" then run_knife depth max_runs
        else run_smoke depth max_runs
    | ignored ->
        Fmt.epr
          "ssba-mc: --smoke runs the smoke or knife config under its own \
           settings; it cannot take %s@."
          (String.concat ", " ignored);
        2
  else
    run_one config
      (Option.value blackout ~default:true)
      (Option.value r_slack ~default:P.default_r_slack)
      (Option.value por ~default:true)
      depth max_runs export

let config_t =
  Arg.(value & opt string "smoke" & info [ "config" ] ~docv:"NAME"
         ~doc:"Configuration to explore: smoke, split or knife.")

let r_slack_t =
  let rs_conv =
    Arg.conv
      ( (fun s ->
          match P.r_slack_of_string s with
          | Some r -> Ok r
          | None -> Error (`Msg (Fmt.str "expected legacy|widen, got %S" s))),
        fun ppf r -> Fmt.string ppf (P.r_slack_to_string r) )
  in
  Arg.(value
       & opt (some ~none:(P.r_slack_to_string P.default_r_slack) rs_conv) None
       & info [ "r-slack" ] ~docv:"legacy|widen"
           ~doc:"Block-R gate variant to run the protocol core under.")

(* The on/off knobs parse to [None] when absent, so --smoke can tell a
   given flag from a default. *)
let on_off name ~doc =
  let on_off_conv =
    Arg.conv
      ( (function
        | "on" -> Ok true
        | "off" -> Ok false
        | s -> Error (`Msg (Fmt.str "expected on|off, got %S" s))),
        fun ppf b -> Fmt.string ppf (if b then "on" else "off") )
  in
  Arg.(value & opt (some ~none:"on" on_off_conv) None
       & info [ name ] ~docv:"on|off" ~doc)

let blackout_t =
  on_off "blackout" ~doc:"Re-initiation blackout knob for the split config."

let por_t = on_off "por" ~doc:"Partial-order reduction."

let depth_t =
  Arg.(value & opt int 24 & info [ "depth" ] ~docv:"N"
         ~doc:"Maximum choice-vector length to expand.")

let max_runs_t =
  Arg.(value & opt int 200_000 & info [ "max-runs" ] ~docv:"N"
         ~doc:"Safety valve on expanded prefixes (the report's explored \
               count).")

let export_t =
  Arg.(value & opt (some string) None & info [ "export" ] ~docv:"PATH"
         ~doc:"Save the minimal split counterexample as a fuzz replay spec.")

let smoke_t =
  Arg.(value & flag & info [ "smoke" ]
         ~doc:"CI gate: exhaust the smoke config (or, with --config knife, \
               the knife config under both gate variants) under both POR \
               modes. Takes no --blackout, --r-slack, --por or --export.")

let cmd =
  let doc = "bounded exhaustive checker for the ss-Byz-Agree core" in
  Cmd.v
    (Cmd.info "ssba-mc" ~doc)
    Term.(
      const main $ config_t $ blackout_t $ r_slack_t $ por_t $ depth_t
      $ max_runs_t $ export_t $ smoke_t)

let () = exit (Cmd.eval' cmd)
