(* ssba-run: run one ss-Byz-Agree scenario from the command line.

     ssba-run --n 7 --general 0 --value hello
     ssba-run --n 10 --attack two-faced --trace
     ssba-run --n 7 --scramble --propose-at 0.6 --general 2
     ssba-run --n 7 --chaos periodic-scramble

   Prints every return, the agreement/validity verdicts and the message
   statistics; --trace dumps the full event trace. Under --chaos (or any
   disruptive schedule) the verdict section also prints the coherence
   timeline with a per-episode recovery report. *)

open Cmdliner
module H = Ssba_harness
module Core = Ssba_core

let attacks =
  [
    ("none", `None);
    ("silent", `Silent);
    ("spam", `Spam);
    ("two-faced", `Two_faced);
    ("stagger", `Stagger);
    ("partial", `Partial);
    ("equivocators", `Equivocators);
    ("mimics", `Mimics);
  ]

(* A flag value outside its domain is a usage error: one line on stderr
   and exit 2, before any scenario is built. *)
let bad flag reason =
  Fmt.epr "ssba-run: %s: %s@." flag reason;
  exit 2

(* Every numeric check is written so that NaN fails it; an infinite horizon,
   duration or rate would never end. [--rto]'s value is checked where the
   transport config and the timeout cascade are built; without [--transport]
   it would change nothing. *)
let check_flags ~n ~general ~propose_at ~horizon ~realtime ~transport_flag ~rto
    ~loss ~dup ~reorder ~service ~service_rate =
  (match Core.Params.default n with
  | exception Invalid_argument reason -> bad "-n" reason
  | _ -> ());
  if not (general >= 0 && general < n) then
    bad "--general" (Printf.sprintf "must lie in [0, %d)" n);
  if rto <> None && not transport_flag then bad "--rto" "needs --transport";
  List.iter
    (fun (flag, p) -> if not (p >= 0.0 && p <= 1.0) then bad flag "must lie in [0, 1]")
    [ ("--loss", loss); ("--dup", dup); ("--reorder", reorder) ];
  if not (Float.is_finite propose_at && propose_at >= 0.0) then
    bad "--propose-at" "must be finite and >= 0";
  let finite_positive flag x =
    if not (Float.is_finite x && x > 0.0) then bad flag "must be finite and > 0"
  in
  Option.iter (finite_positive "--horizon") horizon;
  Option.iter (finite_positive "--service") service;
  finite_positive "--service-rate" service_rate;
  Option.iter
    (fun speed -> if not (speed > 0.0) then bad "--realtime" "must be > 0")
    realtime

let run n seed general value attack scramble chaos sessions propose_at horizon
    trace_flag trace_out metrics_out realtime transport_flag rto loss dup
    reorder service service_rate =
  check_flags ~n ~general ~propose_at ~horizon ~realtime ~transport_flag ~rto
    ~loss ~dup ~reorder ~service ~service_rate;
  let chaos =
    match chaos with
    | None -> None
    | Some name -> (
        match H.Chaos.pattern_of_name name with
        | Ok p -> Some p
        | Error e ->
            prerr_endline e;
            exit 1)
  in
  let base = Core.Params.default n in
  let transport =
    match
      Ssba_transport.Transport.config
        ~rto:(Option.value rto ~default:(3.0 *. base.Core.Params.delta))
        ()
    with
    | exception Invalid_argument reason -> bad "--rto" reason
    | c -> if transport_flag then Some c else None
  in
  let link_faults =
    (if loss > 0.0 then [ H.Scenario.Loss { at = 0.0; p = loss } ] else [])
    @ (if dup > 0.0 then [ H.Scenario.Duplicate { at = 0.0; p = dup } ] else [])
    @
    if reorder > 0.0 then
      [
        H.Scenario.Reorder
          { at = 0.0; prob = reorder; extra = 2.0 *. base.Core.Params.delta };
      ]
    else []
  in
  (* With the transport masking a faulty link, the timeout cascade is built
     at the effective delay bound of the link faults. *)
  let params =
    match H.Scenario.effective_params ?transport n link_faults with
    | exception Invalid_argument reason -> bad "--rto" reason
    | params -> params
  in
  (match Core.Params.validate params with
  | Ok () -> ()
  | Error e ->
      prerr_endline e;
      exit 1);
  let d = params.Core.Params.d in
  let module C = Ssba_adversary.Catalog in
  let f = params.Core.Params.f in
  let proposal = [ { H.Scenario.g = general; v = value; at = propose_at } ] in
  let cast, proposals =
    match attack with
    | `None -> ([], proposal)
    | `Silent -> ([ (general, C.Silent) ], [])
    | `Spam ->
        ( List.init f (fun i ->
              (n - 1 - i, C.Spam { period_d = 5.0; values = [ value; "noise" ] })),
          proposal )
    | `Two_faced ->
        ( [ (general, C.Two_faced_general { v1 = value; v2 = value ^ "'"; at = propose_at }) ],
          [] )
    | `Stagger ->
        ([ (general, C.Stagger_general { v = value; at = propose_at; gap_d = 3.0 }) ], [])
    | `Partial ->
        ( [
            ( general,
              C.Partial_general
                {
                  v = value;
                  at = propose_at;
                  targets = List.init (n - f) (fun i -> (general + 1 + i) mod n);
                } );
          ],
          [] )
    | `Equivocators ->
        ( List.init f (fun i -> (n - 1 - i, C.Equivocator { v1 = value; v2 = value ^ "'" })),
          proposal )
    | `Mimics -> (List.init f (fun i -> (n - 1 - i, C.Mimic { delay_d = 2.0 })), proposal)
  in
  (* The rejoin preset needs a Byzantine node to reform; give it one if the
     attack didn't already. *)
  let cast =
    match chaos with
    | Some H.Chaos.Rejoin when cast = [] ->
        let node = if general = n - 1 then n - 2 else n - 1 in
        if node < 0 then bad "--chaos" "rejoin needs a node besides the General";
        [ (node, C.Spam { period_d = 5.0; values = [ "noise" ] }) ]
    | _ -> cast
  in
  let chaos_schedule =
    match chaos with
    | None -> None
    | Some pattern ->
        let byzantine = List.map fst cast in
        let correct =
          List.filter (fun i -> not (List.mem i byzantine)) (List.init n Fun.id)
        in
        if correct = [] then bad "--chaos" "no correct node is left to play it";
        Some (H.Chaos.schedule pattern ~params ~correct ~byzantine)
  in
  let events =
    (if scramble then
       [ H.Scenario.Scramble { at = 0.0; values = [ value; "x"; "y" ]; net_garbage = 100 } ]
     else [])
    @ link_faults
  in
  let events, proposals, chaos_horizon =
    match chaos_schedule with
    | None -> (events, proposals, 0.0)
    | Some s ->
        ( events @ s.H.Chaos.events,
          proposals @ s.H.Chaos.proposals,
          s.H.Chaos.horizon )
  in
  (* Multi-initiator schedule (footnote 9): --sessions K spreads K logical
     Generals over the correct nodes via channels and fires them all inside
     one [d], so every node hosts ~K overlapping sessions at once. *)
  let channels = max 1 ((sessions + n - 1) / n) in
  let proposals =
    if sessions <= 1 then proposals
    else
      let byzantine = List.map fst cast in
      proposals
      @ List.filter_map
          (fun i ->
            if List.mem (i mod n) byzantine then None
            else
              Some
                {
                  H.Scenario.g = i;
                  v = Printf.sprintf "%s-%d" value i;
                  at = propose_at +. (float_of_int i /. float_of_int sessions *. d);
                })
          (List.init sessions Fun.id)
  in
  (* Service mode: all agreement traffic comes from the recurrent-agreement
     driver (open-loop Poisson arrivals over rotating logical Generals), so
     the scheduled one-shot proposal is dropped and the horizon leaves the
     drain slack the degraded-mode recovery needs. *)
  let module W = Ssba_service.Workload in
  let workload =
    match service with
    | None -> None
    | Some dur ->
        Some
          {
            W.default with
            W.arrivals = W.Poisson { rate = service_rate };
            start_at = propose_at;
            stop_at = propose_at +. dur;
          }
  in
  let proposals = if workload = None then proposals else [] in
  let channels =
    match workload with Some w -> w.W.channels | None -> channels
  in
  let horizon =
    match (horizon, workload) with
    | Some h, _ -> h
    | None, Some w ->
        w.W.stop_at +. (1.5 *. params.Core.Params.delta_stb)
    | None, None ->
        Float.max chaos_horizon
          (propose_at +. (4.0 *. params.Core.Params.delta_agr))
  in
  let sc =
    H.Scenario.default ~name:"cli" ~seed ~cast ~proposals ~events ~horizon
      ~record_trace:(trace_flag || trace_out <> None)
      ?transport ~channels
      ~admission:(workload <> None)
      params
  in
  (match realtime with
  | None -> ()
  | Some speed ->
      Fmt.pr "(running in real time at %gx; virtual horizon %.3fs)@." speed horizon);
  let svc = ref None in
  let on_driver drv =
    match workload with
    | Some w -> svc := Some (Ssba_service.Service.attach ~seed w drv)
    | None -> ()
  in
  let res = H.Runner.run ~on_driver ?speed:realtime sc in
  let elide = sessions > 1 || workload <> None in
  Fmt.pr "@[<v>params: %a@]@." Core.Params.pp params;
  Fmt.pr "returns (%d):@." (List.length res.H.Runner.returns);
  if not elide then
    List.iter
      (fun r -> Fmt.pr "  %a@." Core.Types.pp_return r)
      res.H.Runner.returns
  else Fmt.pr "  (elided: multi-session run)@.";
  (* Judge each episode against the correct set in force at its time — a
     node that reformed later must not be expected in earlier episodes. *)
  let intervals = H.Coherence.intervals sc in
  let correct_at e =
    match H.Coherence.interval_at intervals (H.Metrics.first_return e) with
    | Some iv -> iv.H.Coherence.correct
    | None -> res.H.Runner.correct
  in
  let unanimous = ref 0 and aborted = ref 0 in
  List.iter
    (fun (e : H.Metrics.episode) ->
      match H.Checks.agreement ~correct:(correct_at e) e with
      | H.Checks.Unanimous v ->
          incr unanimous;
          if not elide then
            Fmt.pr "episode G=%d: unanimous %S (skew %.2fd, anchors %.2fd apart)@."
              e.H.Metrics.g v
              (H.Metrics.decision_skew res e /. d)
              (H.Metrics.anchor_skew res e /. d)
      | H.Checks.All_aborted ->
          incr aborted;
          if not elide then Fmt.pr "episode G=%d: all aborted@." e.H.Metrics.g
      | H.Checks.All_silent -> ()
      | H.Checks.Violated why -> Fmt.pr "episode G=%d: VIOLATED: %s@." e.H.Metrics.g why)
    (H.Metrics.episodes res);
  if elide then
    Fmt.pr "episodes over concurrent sessions: %d unanimous, %d aborted@."
      !unanimous !aborted;
  let stabilized = H.Checks.stabilized_after sc in
  (match H.Checks.pairwise_agreement ~after:stabilized res with
  | [] ->
      if stabilized > 0.0 then
        Fmt.pr "pairwise agreement (after stabilization at %.3fs): holds@."
          stabilized
      else Fmt.pr "pairwise agreement: holds@."
  | vs -> List.iter (fun v -> Fmt.pr "pairwise agreement VIOLATION: %s@." v) vs);
  if List.exists (H.Scenario.disruptive sc) sc.H.Scenario.events then begin
    Fmt.pr "@.coherence timeline and recovery (Delta_stb = %.3fs):@."
      params.Core.Params.delta_stb;
    List.iter
      (fun r -> Fmt.pr "  %a@." H.Checks.pp_episode_report r)
      (H.Checks.recovery_report res)
  end;
  Fmt.pr "messages sent: %d (delivered %d, dropped %d, in flight %d)@."
    res.H.Runner.messages_sent res.H.Runner.messages_delivered
    res.H.Runner.messages_dropped res.H.Runner.messages_in_flight;
  if res.H.Runner.messages_duplicated <> 0 || transport <> None then
    Fmt.pr
      "lossy link: duplicated %d; transport: retransmits %d, dup-suppressed \
       %d, expired %d, retries-exhausted %d@."
      res.H.Runner.messages_duplicated res.H.Runner.transport_retransmits
      res.H.Runner.transport_dup_suppressed res.H.Runner.transport_expired
      res.H.Runner.transport_retries_exhausted;
  List.iter
    (fun (k, c) -> Fmt.pr "  %-10s %d@." k c)
    res.H.Runner.messages_by_kind;
  (* Session-table health: the bounded-memory core in one line. [peak live]
     staying under [capacity] is the memory bound; evictions say the bound
     was enforced rather than merely unchallenged. *)
  (match res.H.Runner.nodes with
  | [] -> ()
  | nodes ->
      let stats = List.map (fun (_, nd) -> Core.Node.session_stats nd) nodes in
      let top f = List.fold_left (fun a s -> max a (f s)) 0 stats in
      let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
      Fmt.pr
        "session tables (%d nodes): capacity %d, live %d, peak live %d, \
         evicted %d, gced %d, rejected-at-capacity %d@."
        (List.length nodes)
        (top (fun s -> s.Core.Session_table.capacity))
        (top (fun s -> s.Core.Session_table.live))
        (top (fun s -> s.Core.Session_table.peak_live))
        (sum (fun s -> s.Core.Session_table.evicted))
        (sum (fun s -> s.Core.Session_table.gced))
        (sum (fun s -> s.Core.Session_table.rejected_at_capacity)));
  (match !svc with
  | None -> ()
  | Some s ->
      Fmt.pr "@.service report:@.%a@." Ssba_service.Service.pp_report
        (Ssba_service.Service.report s));
  let conservation = H.Checks.network_conservation res in
  if not conservation.H.Checks.ok then
    Fmt.pr "WARNING: %a@." H.Checks.pp_verdict conservation;
  let write_file path contents =
    match Ssba_sim.Json.write_file path contents with
    | Ok () -> ()
    | Error e ->
        Fmt.epr "cannot write %s: %s@." path e;
        exit 2
  in
  (match trace_out with
  | None -> ()
  | Some path ->
      write_file path (Ssba_sim.Trace.to_jsonl res.H.Runner.trace);
      Fmt.pr "trace written to %s (%d events)@." path
        (Ssba_sim.Trace.count res.H.Runner.trace));
  (match metrics_out with
  | None -> ()
  | Some path ->
      write_file path (Ssba_sim.Metrics.to_jsonl res.H.Runner.metrics);
      Fmt.pr "metrics written to %s@." path);
  if trace_flag then begin
    Fmt.pr "@.trace:@.";
    Fmt.pr "%a@." Ssba_sim.Trace.pp res.H.Runner.trace
  end

let n_arg =
  Arg.(value & opt int 7 & info [ "n" ] ~docv:"N" ~doc:"Number of nodes.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

let general_arg =
  Arg.(value & opt int 0 & info [ "general"; "g" ] ~doc:"The General's node id.")

let value_arg =
  Arg.(value & opt string "hello" & info [ "value"; "v" ] ~doc:"The value to agree on.")

let attack_arg =
  Arg.(
    value
    & opt (enum attacks) `None
    & info [ "attack" ] ~doc:"Byzantine attack: $(docv)."
        ~docv:(String.concat "|" (List.map fst attacks)))

let scramble_arg =
  Arg.(
    value & flag
    & info [ "scramble" ]
        ~doc:"Corrupt all node state and inject network garbage at time 0.")

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"PRESET"
        ~doc:
          "Run a continuous-churn chaos schedule on top of the scenario: \
           $(docv) is one of periodic-scramble, crash-wave, surge or rejoin. \
           Adds 3 disruption episodes with probe proposals and prints a \
           per-episode recovery report (rejoin adds a Byzantine node to \
           reform if the attack has none).")

let sessions_arg =
  Arg.(
    value & opt int 1
    & info [ "sessions" ] ~docv:"K"
        ~doc:
          "Host $(docv) concurrent overlapping agreement sessions per node: \
           spreads $(docv) logical Generals over the nodes via invocation \
           channels (paper footnote 9) and fires them all within one d of \
           --propose-at. The report condenses to per-session verdict counts \
           plus the session-table stats.")

let propose_at_arg =
  Arg.(
    value & opt float 0.05
    & info [ "propose-at" ] ~doc:"Real time of the General's initiation.")

let horizon_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "horizon" ] ~doc:"Simulation end time (default: propose-at + 4 Dagr).")

let trace_arg = Arg.(value & flag & info [ "trace" ] ~doc:"Dump the event trace.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write the event trace as JSON Lines to $(docv) (implies trace \
              recording).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the metrics registry (counters and gauges) as JSON Lines \
              to $(docv).")

let realtime_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "realtime" ]
        ~doc:
          "Pace the simulation against the wall clock at $(docv) virtual \
           seconds per wall second (e.g. 0.01 slows a millisecond-scale \
           agreement down to human speed)."
        ~docv:"SPEED")

let transport_arg =
  Arg.(
    value & flag
    & info [ "transport" ]
        ~doc:
          "Run all traffic through the reliable transport (per-link sequence \
           numbers, ack-driven retransmission, dedup); the timeout cascade \
           is rebuilt at delta_eff when --loss is also given.")

let rto_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "rto" ] ~docv:"SEC"
        ~doc:"Transport retransmission timeout (default: 3 delta); needs --transport.")

let loss_arg =
  Arg.(
    value & opt float 0.0
    & info [ "loss" ] ~docv:"P"
        ~doc:"Persistent per-message loss probability, from time 0.")

let dup_arg =
  Arg.(
    value & opt float 0.0
    & info [ "dup" ] ~docv:"P"
        ~doc:"Persistent per-message duplication probability, from time 0.")

let reorder_arg =
  Arg.(
    value & opt float 0.0
    & info [ "reorder" ] ~docv:"P"
        ~doc:
          "Persistent reordering probability (stretches a delivery by up to \
           2 delta), from time 0.")

let service_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "service" ] ~docv:"SEC"
        ~doc:
          "Run the recurrent-agreement service for $(docv) seconds of \
           open-loop arrivals (admission control, watermark load-shedding, \
           capped-backoff retries), then drain; prints the service \
           latency/throughput report. The one-shot --value proposal is \
           replaced by the arrival stream.")

let service_rate_arg =
  Arg.(
    value & opt float 40.0
    & info [ "service-rate" ] ~docv:"R"
        ~doc:"Arrival rate (jobs/second) for --service mode.")

let cmd =
  let doc = "run one self-stabilizing Byzantine agreement scenario" in
  Cmd.v
    (Cmd.info "ssba-run" ~doc)
    Term.(
      const run $ n_arg $ seed_arg $ general_arg $ value_arg $ attack_arg
      $ scramble_arg $ chaos_arg $ sessions_arg $ propose_at_arg $ horizon_arg $ trace_arg
      $ trace_out_arg $ metrics_out_arg $ realtime_arg $ transport_arg
      $ rto_arg $ loss_arg $ dup_arg $ reorder_arg $ service_arg
      $ service_rate_arg)

let () = exit (Cmd.eval cmd)
