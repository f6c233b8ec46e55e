(* The experiment suite (DESIGN.md §4): one function per table/figure,
   listed once in [all].

   The PODC'06 paper is a theory paper; its evaluation is the set of proven
   properties and complexity claims. Each experiment here regenerates the
   measurable content of one claim as a table the EXPERIMENTS.md records
   paper-vs-measured. Every sweep is a constant of its experiment, and all
   runs are deterministic in their seeds. *)

open Ssba_core.Types
module Params = Ssba_core.Params
module Rng = Ssba_sim.Rng
module Engine = Ssba_sim.Engine
module Clock = Ssba_sim.Clock
module Network = Ssba_net.Network
module Delay = Ssba_net.Delay
module Node = Ssba_core.Node
module C = Ssba_adversary.Catalog
module RS = Ssba_adversary.Round_stretcher

let section title = Printf.printf "\n### %s\n\n" title

(* ----- E1: Validity (Theorem 3, Timeliness 2) --------------------------- *)

(* A correct General's value is decided by every correct node within
   [t0 - d, t0 + 4d]. Sweep n; f Byzantine nodes stay silent (worst crash
   case for quorums). *)
let e1_validity () =
  let ns = [ 4; 7; 10; 16; 25; 31 ] and seeds = [ 1; 2; 3; 4; 5 ] in
  section "E1 — Validity under a correct General (Thm 3, Timeliness 2)";
  let tbl =
    Table.create
      [ "n"; "f"; "runs"; "unanimous"; "latency(max,d)"; "skew(max,d)"; "window<=4d" ]
  in
  List.iter
    (fun n ->
      let params = Params.default n in
      let d = params.Params.d in
      let f = params.Params.f in
      let lat = ref [] and skew = ref [] in
      let ok = ref 0 and windowed = ref 0 in
      List.iter
        (fun seed ->
          let t0 = 0.05 in
          (* the f fault slots are silent (crash) nodes, ids n-f .. n-1 *)
          let cast = List.init f (fun i -> (n - 1 - i, C.Silent)) in
          let sc =
            Scenario.default ~name:"e1" ~seed ~cast
              ~proposals:[ { g = 0; v = "alpha"; at = t0 } ]
              ~horizon:(t0 +. (4.0 *. params.Params.delta_agr))
              params
          in
          let res = Runner.run sc in
          match Metrics.episodes res with
          | [ e ] ->
              if Checks.validity ~correct:res.Runner.correct ~v:"alpha" e then begin
                incr ok;
                lat := Metrics.latency ~proposed_at:t0 e :: !lat;
                skew := Metrics.decision_skew res e :: !skew;
                if (Checks.timeliness_2 res ~proposed_at:t0 e).Checks.ok then
                  incr windowed
              end
          | _ -> ())
        seeds;
      Table.add_row tbl
        [
          string_of_int n;
          string_of_int f;
          string_of_int (List.length seeds);
          Printf.sprintf "%d/%d" !ok (List.length seeds);
          Table.in_d ~d (Metrics.maximum !lat);
          Table.in_d ~d (Metrics.maximum !skew);
          Printf.sprintf "%d/%d" !windowed (List.length seeds);
        ])
    ns;
  Table.print tbl

(* ----- E2: Agreement under faulty Generals (Thm 3, IA-2/IA-4) ----------- *)

let e2_strategies params : (string * (node_id * C.t) list) list =
  let n = params.Params.n in
  let f = params.Params.f in
  let extra_spam =
    (* fill the remaining fault budget with spamming participants *)
    List.init (max 0 (f - 1)) (fun i ->
        (n - 1 - i, C.Spam { period_d = 5.0; values = [ "a"; "b" ] }))
  in
  [
    ("silent-general", (0, C.Silent) :: extra_spam);
    ( "two-faced-general",
      (0, C.Two_faced_general { v1 = "a"; v2 = "b"; at = 0.05 }) :: extra_spam );
    ( "stagger-general",
      (0, C.Stagger_general { v = "a"; at = 0.05; gap_d = 3.0 }) :: extra_spam );
    ( "partial-general",
      ( 0,
        C.Partial_general
          { v = "a"; at = 0.05; targets = List.init (n - f) (fun i -> i + 1) } )
      :: extra_spam );
    ( "equivocators",
      (* correct General, f equivocating participants *)
      List.init f (fun i -> (n - 1 - i, C.Equivocator { v1 = "a"; v2 = "b" })) );
    ( "mimics", List.init f (fun i -> (n - 1 - i, C.Mimic { delay_d = 2.0 })) );
  ]

let e2_agreement () =
  let ns = [ 7; 10; 16; 25 ] and seeds = [ 11; 12; 13 ] in
  section "E2 — Agreement under Byzantine Generals/participants (Thm 3)";
  let tbl = Table.create [ "n"; "attack"; "runs"; "episodes"; "decided"; "aborted"; "agreement" ] in
  List.iter
    (fun n ->
      let params = Params.default n in
      List.iter
        (fun (attack, cast) ->
          let episodes = ref 0 and decided = ref 0 and aborted = ref 0 in
          let violations = ref 0 in
          List.iter
            (fun seed ->
              let proposals =
                (* under participant-only attacks, node 0 is a correct
                   General and must still drive agreement through *)
                if List.mem_assoc 0 cast then []
                else [ { Scenario.g = 0; v = "a"; at = 0.05 } ]
              in
              let sc =
                Scenario.default ~name:attack ~seed ~cast ~proposals
                  ~horizon:(0.05 +. (4.0 *. params.Params.delta_agr))
                  params
              in
              let res = Runner.run sc in
              List.iter
                (fun e ->
                  incr episodes;
                  (match Checks.agreement ~correct:res.Runner.correct e with
                  | Checks.Unanimous _ -> incr decided
                  | Checks.All_aborted -> incr aborted
                  | Checks.All_silent | Checks.Violated _ -> ()))
                (Metrics.episodes res);
              (* episode clustering is ambiguous under continuously-spamming
                 Generals; the sound oracle is the pairwise one *)
              violations := !violations + List.length (Checks.pairwise_agreement res))
            seeds;
          Table.add_row tbl
            [
              string_of_int n;
              attack;
              string_of_int (List.length seeds);
              string_of_int !episodes;
              string_of_int !decided;
              string_of_int !aborted;
              (if !violations = 0 then "holds" else Printf.sprintf "VIOLATED x%d" !violations);
            ])
        (e2_strategies params))
    ns;
  Table.print tbl

(* ----- E3: message-driven vs time-driven (the §1/§5 speed claim) -------- *)

(* One ss-Byz-Agree run at a given actual-delay policy; returns mean decision
   latency from the proposal, or None if not all correct nodes decided. *)
let ssba_latency ~params ~seed ~delay =
  let t0 = 0.05 in
  let sc =
    Scenario.default ~name:"e3" ~seed ~delay
      ~clocks:Scenario.Perfect
      ~proposals:[ { g = 0; v = "m"; at = t0 } ]
      ~horizon:(t0 +. (3.0 *. params.Params.delta_agr))
      params
  in
  let res = Runner.run sc in
  match Metrics.episodes res with
  | [ e ] when Checks.validity ~correct:res.Runner.correct ~v:"m" e ->
      Some (Metrics.latency ~proposed_at:t0 e)
  | _ -> None

(* One TPS'87 baseline run with the same delay policy; latency is measured
   from the synchronized phase-0 start. *)
let tps_latency ~params ~seed ~delay =
  let n = params.Params.n in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let net = Network.create ~engine ~n ~delay ~rng:(Rng.split rng) () in
  let t_start = 0.05 in
  let returns = ref [] in
  let nodes =
    List.init n (fun id ->
        let b =
          Ssba_baseline.Tps_agree.create ~id ~params ~clock:Clock.perfect ~engine
            ~net ~g:0 ~t_start
        in
        Ssba_baseline.Tps_agree.set_on_return b (fun outcome ~tau_ret ->
            returns := (id, outcome, tau_ret) :: !returns);
        b)
  in
  Engine.schedule engine ~at:t_start (fun () ->
      Ssba_baseline.Tps_agree.propose (List.hd nodes) "m");
  let _ = Engine.run ~until:(t_start +. (4.0 *. params.Params.delta_agr)) engine in
  let decided =
    List.filter_map
      (fun (_, o, tau) -> match o with Decided "m" -> Some (tau -. t_start) | _ -> None)
      !returns
  in
  if List.length decided = n then Some (Metrics.maximum decided) else None

(* One EIG (oral messages, f+1 lock-step rounds) run; latency from the
   synchronized start, or None if not all nodes decided the value. *)
let eig_latency ~params ~seed ~delay =
  let n = params.Params.n in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let net = Network.create ~engine ~n ~delay ~rng:(Rng.split rng) () in
  let t_start = 0.05 in
  let decisions = ref [] in
  let nodes =
    List.init n (fun id ->
        let e =
          Ssba_baseline.Eig_agree.create ~id ~params ~clock:Clock.perfect ~engine
            ~net ~g:0 ~t_start
        in
        Ssba_baseline.Eig_agree.set_on_decide e (fun v ~tau ->
            decisions := (v, tau -. t_start) :: !decisions);
        e)
  in
  Engine.schedule engine ~at:t_start (fun () ->
      Ssba_baseline.Eig_agree.propose (List.hd nodes) "m");
  let _ = Engine.run ~until:(t_start +. (4.0 *. params.Params.delta_agr)) engine in
  let ok = List.filter (fun (v, _) -> v = "m") !decisions in
  if List.length ok = n then Some (Metrics.maximum (List.map snd ok)) else None

let e3_msgdriven () =
  let ratios = [ 0.01; 0.05; 0.1; 0.2; 0.5; 1.0 ] and n = 7 and seeds = [ 21; 22; 23 ] in
  section "E3 — Message-driven vs time-driven rounds (latency vs actual delay)";
  let params = Params.default n in
  let d = params.Params.d in
  let tbl =
    Table.create
      [ "delay/delta"; "ss-byz-agree(d)"; "tps-87(d)"; "eig(d)"; "speedup vs tps" ]
  in
  List.iter
    (fun ratio ->
      let delay =
        Delay.uniform
          ~lo:(0.2 *. ratio *. params.Params.delta)
          ~hi:(ratio *. params.Params.delta)
      in
      let ours =
        List.filter_map (fun seed -> ssba_latency ~params ~seed ~delay) seeds
      in
      let theirs =
        List.filter_map (fun seed -> tps_latency ~params ~seed ~delay) seeds
      in
      let eig =
        List.filter_map (fun seed -> eig_latency ~params ~seed ~delay) seeds
      in
      let m_ours = Metrics.mean ours and m_theirs = Metrics.mean theirs in
      Table.add_row tbl
        [
          Printf.sprintf "%.2f" ratio;
          Table.in_d ~d m_ours;
          Table.in_d ~d m_theirs;
          Table.in_d ~d (Metrics.mean eig);
          Printf.sprintf "%.1fx" (m_theirs /. m_ours);
        ])
    ratios;
  Table.print tbl

(* ----- E4: convergence from arbitrary states (Corollary 5) -------------- *)

let e4_convergence () =
  let n = 7 and runs = 30 and fractions = [ 0.25; 0.5; 0.75; 1.0; 1.25 ] in
  section "E4 — Convergence from scrambled states (Cor. 5: stable by Delta_stb)";
  let params = Params.default n in
  let tbl =
    Table.create [ "propose at"; "runs"; "unanimous"; "violations"; "silent/abort" ]
  in
  List.iter
    (fun frac ->
      let t_p = frac *. params.Params.delta_stb in
      let ok = ref 0 and viol = ref 0 and other = ref 0 in
      for seed = 1 to runs do
        let sc =
          Scenario.default ~name:"e4" ~seed:(1000 + seed)
            ~events:
              [
                Scenario.Scramble
                  { at = 0.0; values = [ "x"; "y"; "z"; "m" ]; net_garbage = 150 };
              ]
            ~proposals:[ { g = seed mod n; v = "m"; at = t_p } ]
            ~horizon:(t_p +. (4.0 *. params.Params.delta_agr))
            params
        in
        let res = Runner.run sc in
        (* Only the post-proposal episode counts; earlier garbage episodes
           are pre-stabilization noise the theory says nothing about. *)
        let eps =
          List.filter
            (fun (e : Metrics.episode) -> Metrics.first_return e >= t_p)
            (Metrics.episodes res)
        in
        let this_ok =
          List.exists
            (fun e -> Checks.validity ~correct:res.Runner.correct ~v:"m" e)
            eps
        in
        let this_viol =
          List.exists
            (fun e -> not (Checks.agreement_holds ~correct:res.Runner.correct e))
            eps
        in
        if this_viol then incr viol
        else if this_ok then incr ok
        else incr other
      done;
      Table.add_row tbl
        [
          Printf.sprintf "%.2f x Dstb" frac;
          string_of_int runs;
          Printf.sprintf "%d/%d" !ok runs;
          string_of_int !viol;
          string_of_int !other;
        ])
    fractions;
  Table.print tbl

(* ----- E5: Timeliness bounds (Timeliness 1a-1d, 2, 3) ------------------- *)

let e5_timeliness () =
  let ns = [ 7; 13 ] and seeds = List.init 10 (fun i -> 31 + i) in
  section "E5 — Timeliness: measured maxima vs paper bounds";
  let tbl = Table.create [ "n"; "property"; "bound"; "measured(max)"; "verdict" ] in
  List.iter
    (fun n ->
      let params = Params.default n in
      let d = params.Params.d in
      let acc : (string, float * float * bool) Hashtbl.t = Hashtbl.create 8 in
      let note (v : Checks.verdict) =
        let m, b, ok =
          match Hashtbl.find_opt acc v.Checks.label with
          | Some (m, b, ok) -> (m, b, ok)
          | None -> (0.0, v.Checks.bound, true)
        in
        Hashtbl.replace acc v.Checks.label
          (Float.max m v.Checks.measured, b, ok && v.Checks.ok)
      in
      List.iter
        (fun seed ->
          let t0 = 0.05 in
          let sc =
            Scenario.default ~name:"e5" ~seed
              ~proposals:[ { g = seed mod n; v = "m"; at = t0 } ]
              ~horizon:(t0 +. (3.0 *. params.Params.delta_agr))
              params
          in
          let res = Runner.run sc in
          List.iter
            (fun e ->
              note (Checks.timeliness_1a res e);
              note (Checks.timeliness_1b res e);
              note (Checks.timeliness_1d res e);
              note (Checks.timeliness_2 res ~proposed_at:t0 e);
              note (Checks.timeliness_3 res e))
            (Metrics.episodes res))
        seeds;
      Hashtbl.fold (fun label v acc -> (label, v) :: acc) acc []
      |> List.sort compare
      |> List.iter (fun (label, (m, b, ok)) ->
             Table.add_row tbl
               [
                 string_of_int n;
                 label;
                 Table.in_d ~d b;
                 Table.in_d ~d m;
                 (if ok then "OK" else "FAIL");
               ]))
    ns;
  Table.print tbl

(* ----- E6: O(f') termination (round-stretcher adversary) ---------------- *)

let e6_early_stop () =
  let n = 22 in
  section "E6 — Termination vs actual faults f' (round-stretcher adversary)";
  let params = Params.default n in
  let f = params.Params.f in
  let fprimes = List.init (f + 1) (fun i -> i) in
  let phi = params.Params.phi in
  let tbl =
    Table.create
      [ "f'"; "colluders"; "outcome"; "termination(Phi)"; "expected(Phi)" ]
  in
  (* The stretcher's choreography runs on absolute time: perfect clocks and
     a fixed small delay. *)
  let world ~seed ?proposals ?cast horizon =
    Runner.run
      (Scenario.default ~name:"e6" ~seed ~clocks:Scenario.Perfect
         ~delay:(Delay.fixed (0.1 *. params.Params.d))
         ?cast ?proposals ~horizon params)
  in
  let stretched ~seed st =
    let res =
      world ~seed ~cast:(RS.cast st) (0.05 +. (3.0 *. params.Params.delta_agr))
    in
    let returns = res.Runner.returns in
    (returns, Metrics.maximum (List.map (fun r -> (r.tau_ret -. r.tau_g) /. phi) returns))
  in
  List.iter
    (fun fprime ->
      if fprime = 0 then begin
        (* no faults: correct General, fast-path decision *)
        let res =
          world ~seed:61
            ~proposals:[ { g = 0; v = "m"; at = 0.05 } ]
            (0.05 +. (2.0 *. params.Params.delta_agr))
        in
        match Metrics.episodes res with
        | [ e ] ->
            Table.add_row tbl
              [
                "0";
                "-";
                "decided";
                Printf.sprintf "%.2f" (Metrics.max_running_time e /. phi);
                "< 1";
              ]
        | _ -> Table.add_row tbl [ "0"; "-"; "no episode"; "-"; "-" ]
      end
      else begin
        let colluders = List.init fprime (fun i -> i) in
        let st =
          RS.make ~params ~colluders ~v:"evil" ~t0:0.05
            ~eps:(0.1 *. params.Params.d) ()
        in
        let returns, phases = stretched ~seed:62 st in
        Table.add_row tbl
          [
            string_of_int fprime;
            String.concat "," (List.map string_of_int colluders);
            (if List.exists (fun r -> r.outcome <> Aborted) returns then "DECIDED"
             else "all abort");
            Printf.sprintf "%.2f" phases;
            string_of_int (RS.expected_abort_phase st);
          ]
      end)
    fprimes;
  (* the decide variant: the adversary lets round 1 complete honestly, so
     block S decides the Byzantine value past the fast-path window *)
  let st =
    RS.make ~complete_round:true ~params ~colluders:[ 0; 1 ] ~v:"evil" ~t0:0.05
      ~eps:(0.1 *. params.Params.d) ()
  in
  let returns, phases = stretched ~seed:63 st in
  let unanimous =
    List.for_all (fun r -> r.outcome = Decided "evil") returns
    && List.length returns = n - 2
  in
  Table.add_row tbl
    [
      "2*";
      "0,1 (+honest rd 1)";
      (if unanimous then "decided \"evil\"" else "INCONSISTENT");
      Printf.sprintf "%.2f" phases;
      Printf.sprintf "<= %d" (RS.expected_decide_phase st);
    ];
  Table.print tbl;
  Printf.printf
    "  (f = %d; linear 2f'+5 until capped by block U at 2f+1 = %d; the 2* row\n\
    \   is the decide variant: the stretch plus one honest round-1 broadcast)\n"
    f ((2 * f) + 1)

(* ----- E7: message complexity ------------------------------------------- *)

(* Each msgd-broadcast costs O(n^2) messages (like TPS'87); in the fast path
   every one of the n deciders broadcasts once (block R3), so a full
   agreement is Theta(n^3) — msgs/n^3 should flatten while msgs/n^2 grows. *)
let e7_msg_complexity () =
  let ns = [ 4; 7; 10; 16; 25; 31 ] in
  section "E7 — Message complexity per agreement (O(n^2) per broadcast, n broadcasts)";
  let tbl = Table.create [ "n"; "messages"; "msgs/n^2"; "msgs/n^3"; "by kind" ] in
  List.iter
    (fun n ->
      let params = Params.default n in
      let t0 = 0.05 in
      let sc =
        Scenario.default ~name:"e7" ~seed:71
          ~proposals:[ { g = 0; v = "m"; at = t0 } ]
          ~horizon:(t0 +. (2.0 *. params.Params.delta_agr))
          params
      in
      let res = Runner.run sc in
      let kinds =
        res.Runner.messages_by_kind
        |> List.map (fun (k, c) -> Printf.sprintf "%s:%d" k c)
        |> String.concat " "
      in
      Table.add_row tbl
        [
          string_of_int n;
          string_of_int res.Runner.messages_sent;
          Printf.sprintf "%.1f" (float_of_int res.Runner.messages_sent /. float_of_int (n * n));
          Printf.sprintf "%.2f" (float_of_int res.Runner.messages_sent /. float_of_int (n * n * n));
          kinds;
        ])
    ns;
  Table.print tbl

(* ----- E8: pulse synchronization atop recurrent agreement --------------- *)

let e8_pulse () =
  let n = 7 and cycles = 8 and byzantine = 1 in
  section "E8 — Pulse synchronization atop recurrent ss-Byz-Agree";
  let params = Params.default n in
  let d = params.Params.d in
  let engine = Engine.create () in
  let rng = Rng.create 81 in
  let delay =
    Delay.uniform ~lo:(0.05 *. params.Params.delta) ~hi:params.Params.delta
  in
  let net = Network.create ~engine ~n ~delay ~rng:(Rng.split rng) () in
  let cycle_len = Ssba_pulse.Pulse_sync.min_cycle params *. 1.2 in
  let byz = List.init byzantine (fun i -> ((i * 2) + 1) mod n) in
  let layers =
    List.init n (fun id -> id)
    |> List.filter_map (fun id ->
           if List.mem id byz then begin
             (* Byzantine slot: a silent node (its General turns are skipped
                by the ladder) *)
             Network.set_handler net id (fun _ -> ());
             None
           end
           else begin
             let clock =
               Clock.random (Rng.split rng) ~rho:params.Params.rho
                 ~max_offset:0.01
             in
             let node =
               Node.create_on ~id ~params ~clock ~engine
                 ~link:(Network.link net) ()
             in
             Some (Ssba_pulse.Pulse_sync.create ~node ~cycle_len ())
           end)
  in
  List.iter Ssba_pulse.Pulse_sync.start layers;
  let horizon = float_of_int (cycles + 2) *. (cycle_len +. (float_of_int n *. params.Params.delta_agr)) in
  let _ = Engine.run ~until:horizon engine in
  let tbl = Table.create [ "cycle"; "nodes pulsed"; "skew(d)"; "skew<=3d" ] in
  for c = 0 to cycles - 1 do
    let rts =
      List.filter_map
        (fun layer ->
          List.find_opt
            (fun (p : Ssba_pulse.Pulse_sync.pulse) -> p.Ssba_pulse.Pulse_sync.cycle = c)
            (Ssba_pulse.Pulse_sync.pulses layer)
          |> Option.map (fun (p : Ssba_pulse.Pulse_sync.pulse) -> p.Ssba_pulse.Pulse_sync.rt))
        layers
    in
    let skew = Metrics.span rts in
    Table.add_row tbl
      [
        string_of_int c;
        Printf.sprintf "%d/%d" (List.length rts) (n - byzantine);
        Table.in_d ~d skew;
        Table.yn (skew <= 3.0 *. d *. 1.001);
      ]
  done;
  Table.print tbl

(* ----- E9: primitive-level property conformance (IA / TPS) -------------- *)

(* Not a table from the paper but a direct mechanical check of its §4/§5
   property statements: record every I-accept, broadcast accept and
   broadcaster detection, and validate IA-1, IA-3, IA-4, TPS-2, TPS-3 and
   TPS-4 event by event. *)
let e9_invariants () =
  let ns = [ 7; 10; 16 ] and seeds = [ 91; 92; 93 ] in
  section "E9 — Primitive-level properties checked from observed events";
  let tbl = Table.create [ "n"; "workload"; "runs"; "observations"; "violations" ] in
  List.iter
    (fun n ->
      let params = Params.default n in
      let workloads =
        [
          ("correct-general", [], [ { Scenario.g = 0; v = "m"; at = 0.05 } ]);
          ( "two-faced-general",
            [ (0, C.Two_faced_general { v1 = "a"; v2 = "b"; at = 0.05 }) ],
            [] );
          ( "spam+equivocators",
            [
              (n - 1, C.Spam { period_d = 5.0; values = [ "a"; "b" ] });
              (n - 2, C.Equivocator { v1 = "a"; v2 = "b" });
            ],
            [ { Scenario.g = 0; v = "m"; at = 0.05 } ] );
          ( "recurrent",
            [],
            [
              { Scenario.g = 0; v = "m1"; at = 0.05 };
              { Scenario.g = 0; v = "m2"; at = 0.05 +. (2.0 *. params.Params.delta_0) };
              { Scenario.g = 1; v = "m3"; at = 0.06 };
            ] );
        ]
      in
      List.iter
        (fun (name, cast, proposals) ->
          let obs_total = ref 0 and violations = ref [] in
          List.iter
            (fun seed ->
              let sc =
                Scenario.default ~name ~seed ~cast ~proposals
                  ~record_observations:true
                  ~horizon:(0.05 +. (4.0 *. params.Params.delta_agr))
                  params
              in
              let res = Runner.run sc in
              obs_total := !obs_total + List.length res.Runner.observations;
              violations := Invariants.check res @ !violations)
            seeds;
          Table.add_row tbl
            [
              string_of_int n;
              name;
              string_of_int (List.length seeds);
              string_of_int !obs_total;
              (match !violations with
              | [] -> "none"
              | vs -> Printf.sprintf "%d (!)" (List.length vs));
            ])
        workloads)
    ns;
  Table.print tbl

(* ----- E10: Lossy links masked by the reliable transport ----------------- *)

(* The paper assumes a bounded-delay channel; a persistently lossy link
   breaks that assumption permanently. The transport rebuilds the channel at
   delta_eff. Sweep loss rate x transport on/off: without the transport
   agreement degrades as p grows; with it, every run agrees and the cost
   shows up as retransmissions and a stretched (virtual-time) latency. *)
let e10_lossy_links () =
  let n = 7 and ps = [ 0.0; 0.1; 0.3 ] and seeds = [ 101; 102; 103 ] in
  section "E10 — Lossy links: agreement vs loss rate, with/without transport";
  let tbl =
    Table.create
      [
        "p";
        "transport";
        "agreed";
        "latency(max)";
        "sent";
        "retransmits";
        "dup-suppr";
        "expired";
      ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun transport ->
          let tcfg =
            if transport then
              Some
                (Ssba_transport.Transport.config
                   ~rto:(3.0 *. (Params.default n).Params.delta) ())
            else None
          in
          let events = if p > 0.0 then [ Scenario.Loss { at = 0.0; p } ] else [] in
          let params = Scenario.effective_params ?transport:tcfg n events in
          let agreed = ref 0 in
          let latency = ref 0.0 in
          let sent = ref 0 and retr = ref 0 in
          let dup = ref 0 and expired = ref 0 in
          List.iter
            (fun seed ->
              let t0 = 0.05 in
              let sc =
                Scenario.default ~name:"e10" ~seed ~events ?transport:tcfg
                  ~proposals:[ { g = seed mod n; v = "m"; at = t0 } ]
                  ~horizon:(t0 +. (3.0 *. params.Params.delta_agr))
                  params
              in
              let res = Runner.run sc in
              let episodes = Metrics.episodes res in
              if
                List.exists
                  (fun e ->
                    match Checks.agreement ~correct:res.Runner.correct e with
                    | Checks.Unanimous _ -> true
                    | Checks.All_silent | Checks.All_aborted
                    | Checks.Violated _ ->
                        false)
                  episodes
              then incr agreed;
              List.iter
                (fun e ->
                  latency := Float.max !latency (Metrics.max_running_time e))
                episodes;
              sent := !sent + res.Runner.messages_sent;
              retr := !retr + res.Runner.transport_retransmits;
              dup := !dup + res.Runner.transport_dup_suppressed;
              expired := !expired + res.Runner.transport_expired)
            seeds;
          Table.add_row tbl
            [
              Printf.sprintf "%.2f" p;
              (if transport then "on" else "off");
              Printf.sprintf "%d/%d" !agreed (List.length seeds);
              Printf.sprintf "%.3fs" !latency;
              string_of_int !sent;
              string_of_int !retr;
              string_of_int !dup;
              string_of_int !expired;
            ])
        [ false; true ])
    ps;
  Table.print tbl

(* ----- E11: Engine scale sweep ------------------------------------------ *)

(* The simulation engine's own throughput: one correct-General agreement at
   each n, timed against the wall clock. Virtual-time results (events, the
   decision) are seed-deterministic; only the wall-clock columns vary run to
   run, so each point reports the best of [repeats] to damp scheduler noise.
   bench/main.exe gates these rows against the committed BENCH_engine.json. *)

type scale_row = {
  sr_n : int;
  sr_events : int;  (* engine events processed (deterministic) *)
  sr_wall_ms : float;  (* best wall-clock time for the run *)
  sr_events_per_sec : float;
  sr_wall_ms_per_sim_s : float;  (* wall ms per simulated second *)
  sr_decided : bool;
}

let e11_workload n =
  let params = Params.default n in
  let t0 = 0.05 in
  let horizon = t0 +. (2.0 *. params.Params.delta_agr) in
  ( Scenario.default ~name:"e11" ~seed:111
      ~proposals:[ { Scenario.g = 0; v = "m"; at = t0 } ]
      ~horizon params,
    horizon )

let e11_scale_rows ?(ns = [ 7; 13; 25; 31; 41; 51; 61; 81; 101 ]) ?(repeats = 3) () =
  List.map
    (fun n ->
      let sc, horizon = e11_workload n in
      let best_ms = ref infinity in
      let events = ref 0 in
      let decided = ref false in
      for _ = 1 to repeats do
        let w0 = Unix.gettimeofday () in
        let res = Runner.run sc in
        let w1 = Unix.gettimeofday () in
        events := res.Runner.engine_stats.Engine.events_processed;
        decided :=
          List.exists
            (fun (r : return_info) ->
              match r.outcome with Decided _ -> true | Aborted -> false)
            res.Runner.returns;
        let ms = (w1 -. w0) *. 1000.0 in
        if ms < !best_ms then best_ms := ms
      done;
      {
        sr_n = n;
        sr_events = !events;
        sr_wall_ms = !best_ms;
        sr_events_per_sec = float_of_int !events /. (!best_ms /. 1000.0);
        sr_wall_ms_per_sim_s = !best_ms /. horizon;
        sr_decided = !decided;
      })
    ns

let e11_scale () =
  section "E11 — Engine scale: events/sec on an agreement workload across n";
  let tbl =
    Table.create
      [ "n"; "events"; "wall(ms)"; "events/sec"; "wall-ms/sim-s"; "decided" ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [
          string_of_int r.sr_n;
          string_of_int r.sr_events;
          Printf.sprintf "%.1f" r.sr_wall_ms;
          Printf.sprintf "%.0f" r.sr_events_per_sec;
          Printf.sprintf "%.1f" r.sr_wall_ms_per_sim_s;
          Table.yn r.sr_decided;
        ])
    (e11_scale_rows ());
  Table.print tbl

(* ----- E12: recovery under continuous churn (§6.1, Delta_stb) ----------- *)

(* The self-stabilization claim, measured: run each chaos pattern's episodic
   disruption schedule (scramble waves, crash/recover waves, delay surges,
   Byzantine rejoins) and, for every coherent interval the schedule opens,
   measure the time from return-to-coherence until the first unanimous
   probe agreement. Every measured recovery must come in under Delta_stb. *)
let e12_churn () =
  let ns = [ 7; 10 ] and seeds = [ 121; 122; 123 ] and episodes = 3 in
  section "E12 — Recovery under continuous churn (per-episode, vs Delta_stb)";
  let tbl =
    Table.create
      [
        "n";
        "pattern";
        "runs";
        "episodes";
        "measured";
        "recovery(mean)";
        "recovery(max)";
        "Dstb";
        "max<=Dstb";
        "agreement";
      ]
  in
  List.iter
    (fun n ->
      let params = Params.default n in
      let f = params.Params.f in
      let byzantine = List.init f (fun i -> n - 1 - i) in
      let correct =
        List.filter (fun i -> not (List.mem i byzantine)) (List.init n Fun.id)
      in
      let cast =
        List.map
          (fun id -> (id, C.Spam { period_d = 10.0; values = [ "junk" ] }))
          byzantine
      in
      List.iter
        (fun pattern ->
          let sched =
            Chaos.schedule ~episodes pattern ~params ~correct ~byzantine
          in
          let total = ref 0 and recoveries = ref [] in
          let violations = ref 0 in
          List.iter
            (fun seed ->
              let sc =
                Scenario.default
                  ~name:("e12-" ^ Chaos.pattern_name pattern)
                  ~seed ~cast ~events:sched.Chaos.events
                  ~proposals:sched.Chaos.proposals ~horizon:sched.Chaos.horizon
                  params
              in
              let res = Runner.run sc in
              List.iter
                (fun (r : Checks.episode_report) ->
                  if r.Checks.interval.Coherence.after_disruption then begin
                    incr total;
                    match r.Checks.recovery_time with
                    | Some rt -> recoveries := rt :: !recoveries
                    | None -> ()
                  end;
                  violations := !violations + List.length r.Checks.violations)
                (Checks.recovery_report res))
            seeds;
          let stb = params.Params.delta_stb in
          let max_rt = Metrics.maximum !recoveries in
          Table.add_row tbl
            [
              string_of_int n;
              Chaos.pattern_name pattern;
              string_of_int (List.length seeds);
              string_of_int !total;
              string_of_int (List.length !recoveries);
              Printf.sprintf "%.3fs" (Metrics.mean !recoveries);
              Printf.sprintf "%.3fs" max_rt;
              Printf.sprintf "%.3fs" stb;
              Table.yn (max_rt <= stb);
              (if !violations = 0 then "holds"
               else Printf.sprintf "VIOLATED x%d" !violations);
            ])
        Chaos.all_patterns)
    ns;
  Table.print tbl

(* ----- E13: concurrent sessions vs the session-table bound -------------- *)

(* The footnote-9 extension under load: k logical Generals spread over the
   nodes via invocation channels, all firing within one [d], so every node
   hosts ~k overlapping (G, tau_g) sessions at once. The session table's
   memory bound is asserted, not just reported: peak live sessions must stay
   within the fixed capacity, and by the horizon every quiescent session must
   have been collected. *)
let e13_sessions () =
  let n = 7 and sessions = [ 35; 105; 210 ] and seed = 131 in
  section
    "E13 — Concurrent overlapping sessions per node (footnote 9), bounded \
     session tables";
  let tbl =
    Table.create
      [
        "n";
        "sessions";
        "unanimous";
        "capacity";
        "peak live";
        "peak<=cap";
        "evicted";
        "gced";
        "rejected";
        "live(end)";
      ]
  in
  List.iter
    (fun k ->
      let params = Params.default n in
      let channels = (k + n - 1) / n in
      let t0 = 0.05 in
      let proposals =
        List.init k (fun i ->
            {
              Scenario.g = i;
              v = Printf.sprintf "m%d" i;
              at = t0 +. (float_of_int i /. float_of_int k *. params.Params.d);
            })
      in
      let sc =
        Scenario.default ~name:"e13" ~seed ~proposals ~channels
          ~horizon:(t0 +. (3.0 *. params.Params.delta_agr))
          params
      in
      let res = Runner.run sc in
      let unanimous =
        List.length
          (List.filter
             (fun (e : Metrics.episode) ->
               match Checks.agreement ~correct:res.Runner.correct e with
               | Checks.Unanimous _ -> true
               | _ -> false)
             (Metrics.episodes res))
      in
      let stats =
        List.map (fun (_, nd) -> Node.session_stats nd) res.Runner.nodes
      in
      let top f = List.fold_left (fun a s -> max a (f s)) 0 stats in
      let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
      let capacity = top (fun s -> s.Ssba_core.Session_table.capacity) in
      let peak = top (fun s -> s.Ssba_core.Session_table.peak_live) in
      (* the memory bound itself — a violation is a bug, not a data point *)
      assert (peak <= capacity);
      Table.add_row tbl
        [
          string_of_int n;
          string_of_int k;
          Printf.sprintf "%d/%d" unanimous k;
          string_of_int capacity;
          string_of_int peak;
          Table.yn (peak <= capacity);
          string_of_int (sum (fun s -> s.Ssba_core.Session_table.evicted));
          string_of_int (sum (fun s -> s.Ssba_core.Session_table.gced));
          string_of_int
            (sum (fun s -> s.Ssba_core.Session_table.rejected_at_capacity));
          string_of_int (top (fun s -> s.Ssba_core.Session_table.live));
        ])
    sessions;
  Table.print tbl

type experiment = { name : string; doc : string; run : unit -> unit }

let all =
  [
    { name = "e1"; doc = "validity under a correct General"; run = e1_validity };
    { name = "e2"; doc = "agreement under Byzantine attack"; run = e2_agreement };
    { name = "e3"; doc = "message-driven vs time-driven"; run = e3_msgdriven };
    { name = "e4"; doc = "convergence from scrambled states"; run = e4_convergence };
    { name = "e5"; doc = "timeliness bounds"; run = e5_timeliness };
    { name = "e6"; doc = "O(f') termination"; run = e6_early_stop };
    { name = "e7"; doc = "message complexity"; run = e7_msg_complexity };
    { name = "e8"; doc = "pulse synchronization"; run = e8_pulse };
    { name = "e9"; doc = "primitive-level properties"; run = e9_invariants };
    { name = "e10"; doc = "lossy links with/without transport"; run = e10_lossy_links };
    { name = "e11"; doc = "engine scale: events/sec across n"; run = e11_scale };
    { name = "e12"; doc = "recovery under continuous churn"; run = e12_churn };
    { name = "e13"; doc = "concurrent sessions vs table bound"; run = e13_sessions };
  ]
