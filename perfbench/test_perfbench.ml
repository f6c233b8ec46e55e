(* The benchmark's own checks: percentiles, span arithmetic, per-op folding,
   the manifest, and the traced world replica against Runner.run. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

(* ----- percentiles ----- *)

let () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "p50 of 1..100 is 50 (nearest rank)" (Stats.percentile 0.5 a = 50.0);
  check "p95 of 1..100 is 95" (Stats.percentile 0.95 a = 95.0);
  check "p95 needs 10 samples beyond it: none at 100 samples"
    (Stats.tail ~q:0.95 a = None);
  let b = Array.init 200 float_of_int in
  check "p95 at 200 samples has exactly 10 beyond it" (Stats.beyond ~q:0.95 200 = 10);
  check "p95 at 200 samples is emitted" (Stats.tail ~q:0.95 b = Some 189.0);
  let s = Stats.summarize (Array.init 11 float_of_int) in
  check "summary carries its sample count" (s.Stats.samples = 11 && s.Stats.p95 = None);
  check "median of one sample" (Stats.median [| 3.5 |] = 3.5)

(* ----- span self time, with a fake clock and allocation counter ----- *)

let fake () =
  let t = ref 0 and w = ref 0 in
  let sp = Span.create ~now:(fun () -> !t) ~words:(fun () -> !w) () in
  (sp, t, w)

let () =
  let sp, t, w = fake () in
  let deliver = Span.acc sp "deliver" and send = Span.acc sp "send" in
  (* a delivery of 100 ns / 30 words containing a send of 40 ns / 10 words *)
  Span.start sp deliver;
  t := 20;
  w := 5;
  Span.start sp send;
  t := 60;
  w := 15;
  Span.stop sp;
  t := 100;
  w := 30;
  Span.stop sp;
  Span.end_op sp;
  let d = Span.totals sp "deliver" and s = Span.totals sp "send" in
  check "nested: parent total includes the child" (d.Span.t_ns = 100);
  check "nested: parent self excludes the child" (d.Span.t_self = 60);
  check "nested: parent self words exclude the child's" (d.Span.t_words = 20);
  check "nested: child self is its whole span" (s.Span.t_self = 40 && s.Span.t_words = 10);
  check "one op folded" (Span.ops sp = 1)

(* ----- per-op folding of per-message accumulators ----- *)

let () =
  let sp, t, _ = fake () in
  let op = Span.acc ~keep:true sp "op" and msg = Span.acc sp "msg" in
  for k = 1 to 3 do
    Span.start sp op;
    for _ = 1 to k do
      Span.start sp msg;
      t := !t + 10;
      Span.stop sp
    done;
    t := !t + 1;
    Span.stop sp;
    Span.end_op sp
  done;
  let rows = List.filter (fun (r : Span.row) -> r.Span.layer = "msg") (Span.rows sp) in
  check "one row per op per touched accumulator"
    (List.map (fun (r : Span.row) -> (r.Span.op, r.Span.calls, r.Span.ns)) rows
    = [ (0, 1, 10); (1, 2, 20); (2, 3, 30) ]);
  check "accumulators reset between ops" ((Span.totals sp "msg").Span.t_calls = 6);
  let recs = Span.records sp in
  check "coarse spans kept individually, per-message ones not"
    (List.length recs = 3
    && List.for_all (fun r -> r.Span.r_name = "op" && r.Span.r_parent = "root") recs);
  check "op self time excludes its messages"
    (List.map (fun r -> r.Span.r_self_ns) recs = [ 1; 1; 1 ])

(* ----- the manifest ----- *)

let () =
  let j = Manifest.load "../BENCHMARK.json" in
  let errors = Manifest.check j in
  List.iter print_endline errors;
  check "BENCHMARK.json is valid and matches the printed names" (errors = []);
  check "name syntax" (Manifest.valid_name "call_ms_p50" && not (Manifest.valid_name "_x"));
  check "name syntax rejects spaces" (not (Manifest.valid_name "a b"));
  let module J = Ssba_sim.Json in
  let broken =
    match j with
    | J.Obj fields ->
        J.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "end_to_end", J.Arr (J.Obj m :: rest) ->
                   (k, J.Arr (J.Obj (("extra", J.Null) :: m) :: rest))
               | _ -> (k, v))
             fields)
    | _ -> j
  in
  check "an extra metric key is refused" (Manifest.check broken <> [])

(* ----- the traced world replica reproduces Runner.run ----- *)

let () =
  let module P = Ssba_core.Params in
  let module Sc = Ssba_harness.Scenario in
  let module R = Ssba_harness.Runner in
  let params = P.default 7 in
  let sc =
    Sc.default ~seed:5
      ~proposals:[ { Sc.g = 0; v = "m"; at = 0.05 }; { Sc.g = 3; v = "q"; at = 0.4 } ]
      ~horizon:(0.4 +. (2.0 *. params.P.delta_agr))
      params
  in
  let reference = R.run sc in
  let sp = Span.create () in
  let a = World.accs sp in
  let w = World.build sp a sc in
  let st = World.run sp a w in
  Span.end_op sp;
  check "replica: same event count"
    (st.Ssba_sim.Engine.events_processed
    = reference.R.engine_stats.Ssba_sim.Engine.events_processed);
  check "replica: same returns" (World.returns w = reference.R.returns);
  check "replica: every delivery went through a traced handler"
    ((Span.totals sp "node.deliver").Span.t_calls
    = Ssba_net.Network.messages_delivered w.World.net);
  (* the driver hook: a short service run attached to the replica *)
  let module Svc = Ssba_service.Service in
  let module W = Ssba_service.Workload in
  let params = P.default 4 in
  let wl = { W.default with W.arrivals = W.Poisson { rate = 50.0 }; stop_at = 1.0 } in
  let sc = Ssba_service.E17.scenario ~seed:3 ~params wl in
  let reference, report = Svc.run ~seed:3 wl sc in
  let svc = ref None in
  let w = World.build ~on_driver:(fun drv -> svc := Some (Svc.attach ~seed:3 wl drv)) sp a sc in
  let st = World.run sp a w in
  Span.end_op sp;
  let traced = Svc.report (Option.get !svc) in
  check "replica with a driver: same events, returns and decisions"
    (st.Ssba_sim.Engine.events_processed
     = reference.R.engine_stats.Ssba_sim.Engine.events_processed
    && World.returns w = reference.R.returns
    && traced.Svc.decided = report.Svc.decided
    && report.Svc.decided > 0);
  check "replica with a driver: proposals and returns were traced"
    ((Span.totals sp "node.propose").Span.t_calls >= report.Svc.admitted
    && (Span.totals sp "service.on_return").Span.t_calls > 0)

let () = if !failures > 0 then exit 1
