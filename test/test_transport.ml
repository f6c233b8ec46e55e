(* Tests for the reliable transport (lib/transport): unit-level behaviour
   over a persistently faulty network, runner-level self-stabilization with
   the transport in the loop, the Heal split, crash/recover mid-broadcast,
   and the lossy fuzz campaign together with its transport-off
   counterexample. *)

open Helpers
module Engine = Ssba_sim.Engine
module Rng = Ssba_sim.Rng
module Net = Ssba_net.Network
module Delay = Ssba_net.Delay
module Link = Ssba_net.Link
module Msg = Ssba_net.Msg
module T = Ssba_transport.Transport
module Params = Ssba_core.Params
module H = Ssba_harness
module F = Ssba_fuzz

(* A 2-node faulty network with a transport on top; protocol traffic goes
   through [link]. *)
let mk ?drop_prob ?dup_prob ?(seed = 7) ?(rto = 0.05) ?retries () =
  let engine = Engine.create () in
  let net =
    Net.create ?drop_prob ?dup_prob ~engine ~n:2 ~delay:(Delay.fixed 0.01)
      ~rng:(Rng.create seed) ()
  in
  let tr = T.create ~engine ~net ~config:(T.config ~rto ?retries ()) () in
  (engine, tr, T.link tr)

(* A transport counter, read by name from the engine's registry as the
   Runner reads it. *)
let count engine name =
  Option.value ~default:0
    (Ssba_sim.Metrics.find_counter (Engine.metrics engine) ("transport." ^ name))

let collect link dst =
  let got = ref [] in
  Link.set_handler link dst (fun m -> got := m.Msg.payload :: !got);
  got

let payloads k = List.init k (fun i -> Printf.sprintf "m%02d" i)

(* Retransmission masks a persistent 30 % loss: every payload arrives
   exactly once even though both data frames and acks keep being dropped. *)
let test_reliable_under_loss () =
  let engine, _, link = mk ~drop_prob:0.3 () in
  let got = collect link 1 in
  List.iter (fun p -> Link.send link ~src:0 ~dst:1 p) (payloads 30);
  ignore (Engine.run engine);
  check_bool "all payloads delivered exactly once" true
    (List.sort compare !got = payloads 30);
  check_bool "loss actually forced retransmissions" true
    (count engine "retransmits" > 0);
  check_int "nothing expired" 0 (count engine "expired")

(* The receive dedup ring turns at-least-once into exactly-once under full
   network duplication. *)
let test_dedup_exactly_once () =
  let engine, _, link = mk ~dup_prob:1.0 () in
  let got = collect link 1 in
  List.iter (fun p -> Link.send link ~src:0 ~dst:1 p) (payloads 20);
  ignore (Engine.run engine);
  check_bool "duplicated frames delivered exactly once" true
    (List.sort compare !got = payloads 20);
  check_bool "duplicates were suppressed" true (count engine "dup_suppressed" > 0)

(* A dead link exhausts the retry budget: state is bounded, the run
   terminates, and the frames are accounted as expired. *)
let test_expiry_on_dead_link () =
  let retries = 12 in
  let engine, _, link = mk ~drop_prob:1.0 ~retries () in
  let got = collect link 1 in
  Link.send link ~src:0 ~dst:1 "a";
  Link.send link ~src:0 ~dst:1 "b";
  ignore (Engine.run engine);
  check_int "nothing delivered" 0 (List.length !got);
  check_int "both frames expired" 2 (count engine "expired");
  check_int "full retry budget spent per frame" (2 * retries)
    (count engine "retransmits")

(* A NaN or infinite rto is refused by [config], not met mid-run as a NaN
   or infinite engine delay. *)
let test_config_rejects_non_finite_rto () =
  List.iter
    (fun rto ->
      match T.config ~rto () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "rto %h accepted" rto)
    [ nan; infinity; neg_infinity ]

(* So is a finite rto whose last backoff, rto * 2^retries, overflows. *)
let test_config_rejects_overflowing_backoff () =
  match T.config ~rto:0.003 ~retries:2000 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "retries 2000 accepted"

(* A frame abandoned at the retry cap is a silent reliability give-up no
   more: the [transport.retries_exhausted] counter and the typed
   [Retries_exhausted] trace event both account for every one. *)
let test_retries_exhausted_accounted () =
  let trace = Ssba_sim.Trace.create ~enabled:true () in
  let engine = Engine.create ~trace () in
  let net =
    Net.create ~drop_prob:1.0 ~engine ~n:2 ~delay:(Delay.fixed 0.01)
      ~rng:(Rng.create 7) ()
  in
  let tr = T.create ~engine ~net ~config:(T.config ~rto:0.05 ()) () in
  let link = T.link tr in
  Link.send link ~src:0 ~dst:1 "a";
  Link.send link ~src:0 ~dst:1 "b";
  ignore (Engine.run engine);
  check_int "counter matches the two abandoned frames" 2
    (count engine "retries_exhausted");
  let events =
    List.filter
      (fun (e : Ssba_sim.Trace.entry) ->
        match e.Ssba_sim.Trace.event with
        | Ssba_sim.Trace.Retries_exhausted { src = 0; dst = 1; _ } -> true
        | _ -> false)
      (Ssba_sim.Trace.to_list trace)
  in
  check_int "one typed trace event per abandoned frame" 2 (List.length events)

(* Each backoff level is one engine lane with a ring of frames beside it.
   Three frames on a dead link, sent at 0, 0.05 and 0.1 to two peers, share
   every level's lane: each must still retransmit at its own
   send + rto * (2^k - 1) and expire rto * 2^retries after its last try,
   its times summed step by step as the engine sums them. *)
let test_backoff_schedule () =
  let trace = Ssba_sim.Trace.create ~enabled:true () in
  let engine = Engine.create ~trace () in
  let net =
    Net.create ~drop_prob:1.0 ~engine ~n:3 ~delay:(Delay.fixed 0.01)
      ~rng:(Rng.create 7) ()
  in
  let rto = 0.25 and retries = 3 in
  let tr =
    T.create ~kind_of:Fun.id ~engine ~net ~config:(T.config ~rto ~retries ())
      ()
  in
  let link = T.link tr in
  let sends = [ (0.0, 1, "a"); (0.05, 2, "b"); (0.1, 1, "c") ] in
  List.iter
    (fun (at, dst, p) ->
      Engine.schedule engine ~at (fun () -> Link.send link ~src:0 ~dst p))
    sends;
  ignore (Engine.run engine);
  let expected =
    List.concat_map
      (fun (at, dst, p) ->
        let rec chain k t =
          let t = t +. (rto *. ldexp 1.0 k) in
          if k = retries then [ (t, dst, p, -1) ]
          else (t, dst, p, k + 1) :: chain (k + 1) t
        in
        chain 0 at)
      sends
    |> List.sort compare
  in
  let got =
    List.filter_map
      (fun (e : Ssba_sim.Trace.entry) ->
        let t = e.Ssba_sim.Trace.time in
        match e.Ssba_sim.Trace.event with
        | Ssba_sim.Trace.Retransmit { dst; msg; attempt; _ } ->
            Some (t, dst, msg, attempt)
        | Ssba_sim.Trace.Retries_exhausted { dst; msg; _ } ->
            Some (t, dst, msg, -1)
        | _ -> None)
      (Ssba_sim.Trace.to_list trace)
  in
  check_int "three tries and an expiry per frame" 12 (List.length got);
  check_bool "every try at its backoff time, in time order" true
    (got = expected)

(* The rings beside the lanes double by [Array.append]: [Array.make] past
   256 slots with a young frame as filler would force a minor collection.
   300 frames on a dead link, sent after a [Gc.minor ()], leave 300 timers
   on level 0's ring; their allocation stays well below the minor heap's
   256k words. *)
let test_ring_growth_no_minor_gc () =
  let engine, _, link = mk ~drop_prob:1.0 () in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for _ = 1 to 300 do
    Link.send link ~src:0 ~dst:1 "x"
  done;
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  check_int "one timer per frame" 300 (Engine.pending engine);
  check_int "no minor collection" before after

(* Transient-fault model: scramble every piece of transport state, then keep
   sending. Capacities are code, not state, so traffic still flows; a
   corrupted dedup slot may wrongly suppress at most a frame or two (the
   same effect as a lost message during the incoherent period), and the
   corruption is overwritten by real traffic. *)
let test_scramble_washout () =
  let engine, tr, link = mk () in
  let got = collect link 1 in
  List.iter (fun p -> Link.send link ~src:0 ~dst:1 p) (payloads 5);
  ignore (Engine.run engine);
  T.scramble tr ~rng:(Rng.create 99);
  got := [];
  let fresh = List.init 20 (fun i -> Printf.sprintf "s%02d" i) in
  List.iter (fun p -> Link.send link ~src:0 ~dst:1 p) fresh;
  ignore (Engine.run engine);
  let delivered = List.sort_uniq compare !got in
  check_int "no payload delivered twice" (List.length !got)
    (List.length delivered);
  check_bool "post-scramble traffic flows (>= 18/20)" true
    (List.length delivered >= 18)

(* ------------------------------------------------------------------ *)
(* Runner-level: the transport in the protocol loop.                   *)

let decided_unanimously ?v (res : H.Runner.result) =
  List.exists
    (fun e ->
      match H.Checks.agreement ~correct:res.H.Runner.correct e with
      | H.Checks.Unanimous u -> ( match v with None -> true | Some v -> u = v)
      | H.Checks.All_silent | H.Checks.All_aborted | H.Checks.Violated _ ->
          false)
    (H.Metrics.episodes res)

(* Acceptance: transport state survives a Scramble. A full state scramble
   (protocol + transport + in-flight garbage) over a permanently lossy link
   must still reach unanimous agreement once Delta_stb has passed. *)
let test_transport_survives_scramble () =
  let n = 7 and p = 0.2 in
  let base = Params.default n in
  let tcfg = T.config ~rto:(3.0 *. base.Params.delta) () in
  let params =
    Params.default
      ~delta:
        (Params.delta_eff ~delta:base.Params.delta ~p ~rto:tcfg.T.rto
           ~retries:tcfg.T.retries)
      n
  in
  let t0 = params.Params.delta_stb in
  let sc =
    H.Scenario.default ~name:"scramble+transport" ~seed:11 ~transport:tcfg
      ~events:
        [
          H.Scenario.Loss { at = 0.0; p };
          H.Scenario.Scramble
            { at = 0.0; values = [ "x"; "y" ]; net_garbage = 100 };
        ]
      ~proposals:[ { g = 2; v = "go"; at = t0 } ]
      ~horizon:(t0 +. (3.0 *. params.Params.delta_agr))
      params
  in
  let res = H.Runner.run sc in
  check_bool "unanimous decision after stabilization" true
    (decided_unanimously ~v:"go" res);
  check_bool "pairwise agreement holds after Delta_stb" true
    (H.Checks.pairwise_agreement ~after:t0 res = [])

(* Satellite: the Heal split. A total transient drop is lifted by Heal_drop
   and by the back-compat heal-all Heal, but NOT by Heal_partition; and a
   persistent Loss survives even heal-all. *)
let test_heal_split () =
  let params = Params.default 7 in
  let run events =
    H.Runner.run
      (H.Scenario.default ~name:"heal-split" ~seed:5 ~events
         ~proposals:[ { g = 0; v = "v"; at = 0.05 } ]
         ~horizon:(0.05 +. (3.0 *. params.Params.delta_agr))
         params)
  in
  let blackout = H.Scenario.Drop_prob { at = 0.0; p = 1.0 } in
  let res = run [ blackout; H.Scenario.Heal_drop { at = 0.02 } ] in
  check_bool "Heal_drop lifts the transient drop" true
    (decided_unanimously ~v:"v" res);
  let res = run [ blackout; H.Scenario.Heal { at = 0.02 } ] in
  check_bool "heal-all still lifts the transient drop" true
    (decided_unanimously ~v:"v" res);
  let res = run [ blackout; H.Scenario.Heal_partition { at = 0.02 } ] in
  check_bool "Heal_partition leaves the drop in place" true
    (H.Checks.no_decision res);
  let res =
    run [ H.Scenario.Loss { at = 0.0; p = 1.0 }; H.Scenario.Heal { at = 0.02 } ]
  in
  check_bool "persistent Loss survives heal-all" true (H.Checks.no_decision res)

(* Satellite: a participant crashing mid-broadcast and recovering. Crash
   only mutes sends, so the recovered node catches up and the whole cluster
   (quorum n - f = 6 among the other nodes) decides unanimously — plain and
   with the transport over a lossy link. *)
let test_crash_recover_mid_broadcast () =
  let n = 7 in
  let check_case ~name ~p ~transport =
    let base = Params.default n in
    let tcfg = T.config ~rto:(3.0 *. base.Params.delta) () in
    let params =
      if transport && p > 0.0 then
        Params.default
          ~delta:
            (Params.delta_eff ~delta:base.Params.delta ~p ~rto:tcfg.T.rto
               ~retries:tcfg.T.retries)
          n
      else base
    in
    let t0 = 0.05 in
    let events =
      (if p > 0.0 then [ H.Scenario.Loss { at = 0.0; p } ] else [])
      @ [
          H.Scenario.Crash { node = 3; at = t0 +. (0.5 *. params.Params.d) };
          H.Scenario.Recover { node = 3; at = t0 +. (2.0 *. params.Params.d) };
        ]
    in
    let sc =
      H.Scenario.default ~name ~seed:31 ~events
        ?transport:(if transport then Some tcfg else None)
        ~proposals:[ { g = 0; v = "w"; at = t0 } ]
        ~horizon:(t0 +. (3.0 *. params.Params.delta_agr))
        params
    in
    let res = H.Runner.run sc in
    check_bool (name ^ ": all 7 (incl. recovered) decide unanimously") true
      (List.exists
         (fun e ->
           H.Checks.validity ~correct:res.H.Runner.correct ~v:"w" e)
         (H.Metrics.episodes res))
  in
  check_case ~name:"plain" ~p:0.0 ~transport:false;
  check_case ~name:"lossy+transport" ~p:0.2 ~transport:true

(* ------------------------------------------------------------------ *)
(* Fuzz: the lossy campaign and the transport-off counterexample.      *)

(* Acceptance: a 50-scenario campaign with persistent loss up to p = 0.3
   plus duplication and reordering, transport on, passes every oracle in
   the strictest class (Agreement, Validity, Termination). The digest pins
   the corpus byte-for-byte; `ssba-fuzz --seed 42 --runs 50 --lossy`
   reproduces it. *)
let test_lossy_campaign () =
  let summary =
    F.Campaign.run
      {
        F.Campaign.default_config with
        F.Campaign.seed = 42;
        runs = 50;
        gen = F.Gen.lossy_config;
        shrink = false;
      }
  in
  check_int "no oracle failures" 0 (List.length summary.F.Campaign.failed);
  check_str "corpus digest pinned" "7a08e9d2c32ec6be5c67c4da01d5aad5"
    summary.F.Campaign.corpus_digest;
  (* the pre-fix lossy corpus is frozen behind the legacy gate and the
     pre-edge generator streams (`--lossy --r-slack legacy --edge-delays
     off` on the CLI) *)
  let legacy =
    F.Campaign.run
      {
        F.Campaign.default_config with
        F.Campaign.seed = 42;
        runs = 50;
        gen =
          {
            F.Gen.lossy_config with
            F.Gen.r_slack = Ssba_core.Params.Legacy;
            F.Gen.edge_delays = false;
          };
        shrink = false;
      }
  in
  check_int "legacy lossy corpus has no failures" 0
    (List.length legacy.F.Campaign.failed);
  check_str "legacy lossy corpus digest unchanged"
    "414d11485c99614faf7fa25524629b8a" legacy.F.Campaign.corpus_digest

(* Acceptance regression: the SAME lossy corpus, transport stripped, loses
   Termination/Validity. [assume_coherent] keeps the reliable-class oracles
   on even though the bare protocol never re-enters the paper's model; the
   horizon is recomputed for the stripped spec (its un-inflated timeout
   cascade makes the lossy horizon absurdly long in event count). *)
let test_transport_off_loses_termination () =
  let failures = ref 0 and lossy_specs = ref 0 in
  for i = 0 to 11 do
    let spec =
      F.Campaign.spec_of_iteration ~seed:42 ~gen:F.Gen.lossy_config i
    in
    if
      List.exists
        (function Ssba_harness.Scenario.Loss { p; _ } -> p > 0.0 | _ -> false)
        spec.F.Spec.events
    then begin
      incr lossy_specs;
      let stripped = { spec with F.Spec.transport = None } in
      let stripped =
        { stripped with F.Spec.horizon = F.Gen.min_horizon stripped }
      in
      let _, report =
        F.Oracle.run
          ~config:{ F.Oracle.default_config with assume_coherent = true }
          stripped
      in
      failures := !failures + List.length report.F.Oracle.failures
    end
  done;
  check_bool "corpus prefix contains lossy specs" true (!lossy_specs > 0);
  check_bool "stripping the transport breaks the oracles" true (!failures > 0)

(* Two known lossy-tier failures, pinned as failing (as the IA-4 gap once
   was) until the transport stops overwriting unacked frames. In both, one
   correct node has no return in a session that every other correct node
   decides, and the transport evicted frames from a full send window (22
   and 7). `ssba-fuzz --lossy --seed 12 --iteration 1423` and `--seed 42
   --iteration 5274` reproduce them. The transport fix flips this test to
   "passes every oracle, evicts nothing". *)
let test_known_eviction_failures () =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  in
  List.iter
    (fun (seed, iteration, evicted) ->
      let name = Printf.sprintf "lossy %d/%d" seed iteration in
      let spec =
        F.Campaign.spec_of_iteration ~seed ~gen:F.Gen.lossy_config iteration
      in
      let res, report = F.Oracle.run spec in
      check_bool (name ^ " still fails") true (F.Oracle.failed report);
      check_bool (name ^ ": a correct node has no return") true
        (List.exists
           (fun f ->
             f.F.Oracle.oracle = "agreement"
             && contains f.F.Oracle.detail "has no return")
           report.F.Oracle.failures);
      check_int (name ^ ": evicted frames") evicted
        res.Ssba_harness.Runner.transport_evicted;
      List.iter
        (fun f ->
          check_bool (name ^ ": the story names the evictions") true
            (contains f.F.Oracle.detail
               (Printf.sprintf "transport evicted %d unacked frames" evicted)))
        report.F.Oracle.failures)
    [ (12, 1423, 22); (42, 5274, 7) ]

(* The transport unwraps every data frame into its one envelope; a payload
   handler that sends, broadcasts and has a forged frame injected (with a
   delay override installed on the network) still reads its own delivery
   afterwards. *)
let test_envelope_reentrancy () =
  let engine = Engine.create () in
  let net =
    Net.create ~engine ~n:3 ~delay:(Delay.fixed 0.01) ~rng:(Rng.create 7) ()
  in
  Net.set_delay_override net (Some (fun ~src:_ ~dst:_ _ -> None));
  let tr = T.create ~engine ~net ~config:(T.config ~rto:0.05 ()) () in
  let link = T.link tr in
  let seen = ref [] in
  for i = 0 to 2 do
    Link.set_handler link i (fun m ->
        let before = (m.Msg.src, m.Msg.dst, m.Msg.payload) in
        if m.Msg.payload = "ping" then begin
          Link.send link ~src:i ~dst:((i + 1) mod 3) "pong";
          Link.broadcast link ~src:i "all";
          Net.inject_forged net ~claimed_src:2 ~dst:0 ~delay:0.005
            (T.Data { seq = 1_000; payload = "fake" })
        end;
        seen := (i, before, (m.Msg.src, m.Msg.dst, m.Msg.payload)) :: !seen)
  done;
  Link.send link ~src:0 ~dst:1 "ping";
  ignore (Engine.run engine);
  check_int "ping, pong, three copies of all and fake arrived" 6
    (List.length !seen);
  List.iter
    (fun (i, ((_, dst, _) as before), after) ->
      check_int "dst is the handler's id" i dst;
      check_bool "the handler's sends left its envelope" true (before = after))
    !seen;
  check_bool "the ping handler read its own delivery" true
    (List.exists (fun (_, _, after) -> after = (0, 1, "ping")) !seen)

let suite =
  [
    case "reliable delivery under 30% loss" test_reliable_under_loss;
    case "exactly-once under duplication" test_dedup_exactly_once;
    case "retry cap on a dead link" test_expiry_on_dead_link;
    case "config rejects a NaN or infinite rto" test_config_rejects_non_finite_rto;
    case "config rejects an overflowing last backoff"
      test_config_rejects_overflowing_backoff;
    case "retries-exhausted counter and trace event"
      test_retries_exhausted_accounted;
    case "retransmissions keep their backoff times" test_backoff_schedule;
    case "ring growth forces no minor collection" test_ring_growth_no_minor_gc;
    case "scramble washes out" test_scramble_washout;
    case "transport survives Scramble event" test_transport_survives_scramble;
    case "Heal split (targeted heals)" test_heal_split;
    case "crash/recover mid-broadcast" test_crash_recover_mid_broadcast;
    case "lossy campaign (50 runs, transport on)" test_lossy_campaign;
    case "transport off loses termination" test_transport_off_loses_termination;
    case "known eviction failures still fail" test_known_eviction_failures;
    case "envelope re-entrancy: a payload handler's sends leave its envelope"
      test_envelope_reentrancy;
  ]
