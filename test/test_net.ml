(* Tests for the bounded-delay authenticated network. *)

open Helpers
module Engine = Ssba_sim.Engine
module Rng = Ssba_sim.Rng
module Net = Ssba_net.Network
module Delay = Ssba_net.Delay
module Msg = Ssba_net.Msg

let mk ?(n = 3) ?(delay = Delay.fixed 0.1) () =
  let engine = Engine.create () in
  let net = Net.create ~engine ~n ~delay ~rng:(Rng.create 1) () in
  (engine, net)

(* The [net.in_flight] gauge, read by name as the Runner reads it. *)
let in_flight engine =
  int_of_float
    (Option.value ~default:0.0
       (Ssba_sim.Metrics.find_gauge (Engine.metrics engine) "net.in_flight"))

let test_delivery_timing () =
  let engine, net = mk () in
  let arrived = ref None in
  Net.set_handler net 1 (fun m ->
      arrived := Some (Engine.now engine, m.Msg.src, m.Msg.payload));
  Engine.schedule engine ~at:1.0 (fun () -> Net.send net ~src:0 ~dst:1 "hi");
  ignore (Engine.run engine);
  match !arrived with
  | Some (t, src, payload) ->
      check_float "delivered after the fixed delay" 1.1 t;
      check_int "authentic src" 0 src;
      check_str "payload" "hi" payload
  | None -> Alcotest.fail "message not delivered"

(* Regression: a message reaching a handler-less destination used to vanish
   from the accounting (neither delivered nor dropped). It must count as a
   drop so conservation holds. *)
let test_no_handler_counts_as_drop () =
  let engine, net = mk () in
  Net.send net ~src:0 ~dst:2 "x";
  check_int "in flight until delivery" 1 (in_flight engine);
  ignore (Engine.run engine);
  check_int "sent counted" 1 (counter engine "net.sent");
  check_int "nothing delivered" 0 (counter engine "net.delivered");
  check_int "counted as dropped" 1 (counter engine "net.dropped");
  check_int "nothing left in flight" 0 (in_flight engine)

let test_broadcast_includes_self () =
  let engine, net = mk () in
  let got = ref [] in
  for i = 0 to 2 do
    Net.set_handler net i (fun m -> got := (i, m.Msg.payload) :: !got)
  done;
  Net.broadcast net ~src:1 "b";
  ignore (Engine.run engine);
  check_int "all three nodes got it (self included)" 3 (List.length !got)

let test_uniform_delay_within_bounds () =
  let engine, net = mk ~delay:(Delay.uniform ~lo:0.01 ~hi:0.05) () in
  let times = ref [] in
  Net.set_handler net 1 (fun _ -> times := Engine.now engine :: !times);
  for _ = 1 to 100 do
    Net.send net ~src:0 ~dst:1 "m"
  done;
  ignore (Engine.run engine);
  List.iter
    (fun t -> check_bool "within [lo, hi]" true (t >= 0.01 && t <= 0.05))
    !times;
  check_int "all delivered" 100 (List.length !times)

let test_mute () =
  let engine, net = mk () in
  let got = ref 0 in
  Net.set_handler net 1 (fun _ -> incr got);
  Net.set_muted net 0 true;
  Net.send net ~src:0 ~dst:1 "dropped";
  Net.send net ~src:2 ~dst:1 "passes";
  ignore (Engine.run engine);
  check_int "muted sender dropped" 1 !got;
  check_bool "is_muted" true (Net.is_muted net 0);
  Net.set_muted net 0 false;
  Net.send net ~src:0 ~dst:1 "back";
  ignore (Engine.run engine);
  check_int "unmuted delivers" 2 !got;
  check_int "drops counted" 1 (counter engine "net.dropped");
  List.iter
    (fun node ->
      check_bool "is_muted outside [0, n)" false (Net.is_muted net node);
      match Net.set_muted net node true with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "set_muted outside [0, n) must raise")
    [ -1; Net.size net ]

let test_partition () =
  let engine, net = mk () in
  let got = ref [] in
  for i = 0 to 2 do
    Net.set_handler net i (fun m -> got := (m.Msg.src, i) :: !got)
  done;
  Net.set_partition net
    (Some (fun ~src ~dst -> (src = 0 && dst = 1) || (src = 1 && dst = 0)));
  Net.send net ~src:0 ~dst:1 "blocked";
  Net.send net ~src:0 ~dst:2 "ok";
  ignore (Engine.run engine);
  check_bool "0->1 blocked, 0->2 passes" true (!got = [ (0, 2) ]);
  Net.set_partition net None;
  Net.send net ~src:0 ~dst:1 "healed";
  ignore (Engine.run engine);
  check_int "healed" 2 (List.length !got)

let test_drop_prob () =
  let engine, net = mk () in
  let got = ref 0 in
  Net.set_handler net 1 (fun _ -> incr got);
  Net.set_drop_prob net 1.0;
  for _ = 1 to 20 do
    Net.send net ~src:0 ~dst:1 "x"
  done;
  ignore (Engine.run engine);
  check_int "all dropped at p=1" 0 !got;
  Net.set_drop_prob net 0.0;
  Net.send net ~src:0 ~dst:1 "y";
  ignore (Engine.run engine);
  check_int "delivered at p=0" 1 !got

(* The handler copies the fields out: one envelope serves every delivery,
   so a retained record would read the last delivery's fields. *)
let test_forged () =
  let engine, net = mk () in
  let seen = ref None in
  Net.set_handler net 1 (fun m -> seen := Some (m.Msg.src, m.Msg.payload));
  Net.inject_forged net ~claimed_src:2 ~dst:1 ~delay:0.5 "fake";
  (* Regression: forged injections used to be delivered without ever being
     counted as sent, leaving delivered > sent. *)
  check_int "forged counts as sent" 1 (counter engine "net.sent");
  check_int "forged is in flight" 1 (in_flight engine);
  ignore (Engine.run engine);
  check_int "forged delivered" 1 (counter engine "net.delivered");
  check_int "nothing left in flight" 0 (in_flight engine);
  match !seen with
  | Some (src, payload) ->
      check_int "claimed src" 2 src;
      check_str "payload" "fake" payload
  | None -> Alcotest.fail "forged message not delivered"

let test_delay_override () =
  let engine, net = mk () in
  let at = ref 0.0 in
  Net.set_handler net 1 (fun _ -> at := Engine.now engine);
  Net.set_delay_override net
    (Some (fun ~src ~dst:_ _ -> if src = 0 then Some 0.7 else None));
  Net.send net ~src:0 ~dst:1 "slow";
  ignore (Engine.run engine);
  check_float "override applied" 0.7 !at;
  Net.send net ~src:2 ~dst:1 "normal";
  ignore (Engine.run engine);
  check_float "non-matching messages keep the policy delay" 0.8 !at

(* Delays computed by the network (a policy draw or an override, plus the
   reorder extra) and a forged injection's delay are checked so that NaN
   fails: a NaN delay would arm a NaN delivery time. *)
let test_nan_delay_rejected () =
  let engine, net = mk () in
  Net.set_delay_override net (Some (fun ~src:_ ~dst:_ _ -> Some Float.nan));
  Alcotest.check_raises "send with a NaN override"
    (Invalid_argument "Engine.schedule_after: NaN delay") (fun () ->
      Net.send net ~src:0 ~dst:1 "x");
  Alcotest.check_raises "broadcast with a NaN override"
    (Invalid_argument "Engine.schedule_after: NaN delay") (fun () ->
      Net.broadcast net ~src:0 "x");
  Alcotest.check_raises "forged injection with a NaN delay"
    (Invalid_argument "Engine.schedule_after: NaN delay") (fun () ->
      Net.inject_forged net ~claimed_src:2 ~dst:1 ~delay:Float.nan "fake");
  check_int "nothing queued" 0 (Engine.pending engine)

let test_kind_stats () =
  let engine = Engine.create () in
  let net =
    Net.create ~engine ~n:2 ~delay:(Delay.fixed 0.01) ~rng:(Rng.create 1)
      ~kind_of:(fun s -> s) ()
  in
  Net.send net ~src:0 ~dst:1 "a";
  Net.send net ~src:0 ~dst:1 "a";
  Net.send net ~src:0 ~dst:1 "b";
  check_bool "per-kind counts" true
    (Ssba_sim.Metrics.counters_with_prefix (Engine.metrics engine) "net.sent."
    = [ ("a", 2); ("b", 1) ])

let test_bad_destination () =
  let _, net = mk () in
  Alcotest.check_raises "destination out of range"
    (Invalid_argument "Network.send: bad destination") (fun () ->
      Net.send net ~src:0 ~dst:7 "x")

(* The network feeds the engine's shared metrics registry. *)
let test_metrics_registry_feed () =
  let engine = Engine.create () in
  let net =
    Net.create ~engine ~n:2 ~delay:(Delay.fixed 0.01) ~rng:(Rng.create 1)
      ~kind_of:(fun s -> s) ()
  in
  Net.set_handler net 1 (fun _ -> ());
  Net.send net ~src:0 ~dst:1 "echo";
  let m = Engine.metrics engine in
  let module M = Ssba_sim.Metrics in
  check_bool "net.sent" true (M.find_counter m "net.sent" = Some 1);
  check_bool "net.sent.echo" true (M.find_counter m "net.sent.echo" = Some 1);
  check_bool "net.in_flight up" true (M.find_gauge m "net.in_flight" = Some 1.0);
  ignore (Engine.run engine);
  check_bool "net.delivered" true (M.find_counter m "net.delivered" = Some 1);
  check_bool "net.in_flight down" true (M.find_gauge m "net.in_flight" = Some 0.0)

(* With tracing enabled, every send/deliver/drop leaves a typed event. *)
let test_trace_events () =
  let tr = Ssba_sim.Trace.create ~enabled:true () in
  let engine = Engine.create ~trace:tr () in
  let net =
    Net.create ~engine ~n:2 ~delay:(Delay.fixed 0.01) ~rng:(Rng.create 1)
      ~kind_of:(fun s -> s) ()
  in
  Net.set_handler net 1 (fun _ -> ());
  Net.send net ~src:0 ~dst:1 "echo";
  Net.send net ~src:1 ~dst:0 "init";  (* no handler on 0: dropped on arrival *)
  ignore (Engine.run engine);
  check_int "send events" 2 (List.length (Ssba_sim.Trace.filter ~kind:"send" tr));
  check_int "deliver events" 1
    (List.length (Ssba_sim.Trace.filter ~kind:"deliver" tr));
  check_int "drop events" 1 (List.length (Ssba_sim.Trace.filter ~kind:"drop" tr))

let test_duplicate () =
  let engine, net = mk () in
  let got = ref 0 in
  Net.set_handler net 1 (fun _ -> incr got);
  Net.set_dup_prob net 1.0;
  for _ = 1 to 10 do
    Net.send net ~src:0 ~dst:1 "x"
  done;
  ignore (Engine.run engine);
  check_int "every message delivered twice at dup=1" 20 !got;
  check_int "duplicates counted" 10 (counter engine "net.duplicated");
  check_int "conservation: attempts all accounted"
    (counter engine "net.sent" + counter engine "net.duplicated")
    (counter engine "net.delivered" + counter engine "net.dropped"
   + in_flight engine)

let test_reorder () =
  let engine, net = mk () in
  (* fixed 0.1 delay; reordering stretches a delivery by up to 0.5 more *)
  let times = ref [] in
  Net.set_handler net 1 (fun _ -> times := Engine.now engine :: !times);
  Net.set_reorder net (Some { Net.prob = 1.0; extra = 0.5 });
  for _ = 1 to 20 do
    Net.send net ~src:0 ~dst:1 "x"
  done;
  ignore (Engine.run engine);
  check_int "all delivered" 20 (List.length !times);
  check_int "all stretched" 20 (counter engine "net.reordered");
  List.iter
    (fun t -> check_bool "within [0.1, 0.6]" true (t >= 0.1 && t <= 0.6 +. 1e-9))
    !times;
  check_bool "some delivery actually stretched" true
    (List.exists (fun t -> t > 0.1 +. 1e-9) !times)

(* Satellite regression: each fault concern draws from its own RNG stream,
   and every send draws from all of them unconditionally — so toggling one
   fault must not shift another concern's samples. *)
let test_rng_streams_independent () =
  let deliveries ~drop ~dup =
    let engine, net = mk ~n:2 ~delay:(Delay.uniform ~lo:0.01 ~hi:0.09) () in
    if drop then Net.set_drop_prob net 0.5;
    if dup then Net.set_dup_prob net 0.5;
    let times = ref [] in
    Net.set_handler net 1 (fun m ->
        times := (m.Msg.payload, Engine.now engine) :: !times);
    for i = 1 to 50 do
      Net.send net ~src:0 ~dst:1 (string_of_int i)
    done;
    ignore (Engine.run engine);
    !times
  in
  let plain = deliveries ~drop:false ~dup:false in
  (* Loss removes deliveries but must not shift the delays of survivors. *)
  let lossy = deliveries ~drop:true ~dup:false in
  check_bool "loss thinned the deliveries" true
    (List.length lossy < List.length plain);
  List.iter
    (fun (p, t) ->
      check_bool
        (Printf.sprintf "survivor %s keeps its delay" p)
        true
        (List.exists (fun (p', t') -> p = p' && Float.abs (t -. t') < 1e-12) plain))
    lossy;
  (* Duplication adds copies but every primary keeps its original delay. *)
  let duped = deliveries ~drop:false ~dup:true in
  List.iter
    (fun (p, t) ->
      check_bool
        (Printf.sprintf "primary %s still arrives on time" p)
        true
        (List.exists (fun (p', t') -> p = p' && Float.abs (t -. t') < 1e-12) duped))
    plain

(* One envelope serves every delivery, and a send never writes it (the
   delay override gets the send's fields): a handler that sends, broadcasts
   and injects a forged message still reads its own delivery afterwards. *)
let test_envelope_reentrancy () =
  let engine, net = mk () in
  let routed = ref 0 in
  Net.set_delay_override net
    (Some
       (fun ~src:_ ~dst:_ _ ->
         incr routed;
         None));
  let seen = ref [] in
  for i = 0 to 2 do
    Net.set_handler net i (fun m ->
        let before = (m.Msg.src, m.Msg.dst, m.Msg.payload) in
        if m.Msg.payload = "ping" then begin
          Net.send net ~src:i ~dst:((i + 1) mod 3) "pong";
          Net.broadcast net ~src:i "all";
          Net.inject_forged net ~claimed_src:2 ~dst:0 ~delay:0.05 "fake"
        end;
        seen := (i, before, (m.Msg.src, m.Msg.dst, m.Msg.payload)) :: !seen)
  done;
  Net.send net ~src:0 ~dst:1 "ping";
  ignore (Engine.run engine);
  check_int "the override saw ping, pong and the broadcast" 5 !routed;
  check_int "ping, pong, three copies of all and fake arrived" 6
    (List.length !seen);
  List.iter
    (fun (i, ((_, dst, _) as before), after) ->
      check_int "dst is the handler's id" i dst;
      check_bool "the handler's sends left its envelope" true (before = after))
    !seen;
  check_bool "the ping handler read its own delivery" true
    (List.exists (fun (_, _, after) -> after = (0, 1, "ping")) !seen)

(* Conservation property: under an arbitrary mix of sends, broadcasts,
   forged injections, mutes, partitions, loss, duplication and reordering,
   and at ANY point of the drain (including mid-flight),
   attempts = sent + duplicated = delivered + dropped + in_flight. *)
let prop_conservation =
  let invariant engine =
    counter engine "net.sent" + counter engine "net.duplicated"
    = counter engine "net.delivered" + counter engine "net.dropped"
      + in_flight engine
  in
  QCheck.Test.make ~name:"sent = delivered + dropped + in_flight" ~count:100
    QCheck.(pair small_int (small_list int))
    (fun (seed, ops) ->
      let n = 4 in
      let engine = Engine.create () in
      let net =
        Net.create ~engine ~n
          ~delay:(Delay.uniform ~lo:0.01 ~hi:0.09)
          ~rng:(Rng.create (1 + abs seed))
          ()
      in
      (* node 3 keeps no handler, so some deliveries become drops *)
      for i = 0 to 2 do
        Net.set_handler net i (fun _ -> ())
      done;
      List.iteri
        (fun i op ->
          let op = abs op in
          match op mod 8 with
          | 0 -> Net.send net ~src:(i mod n) ~dst:(op mod n) "m"
          | 1 ->
              Net.inject_forged net ~claimed_src:(op mod n) ~dst:(i mod n)
                ~delay:0.05 "forged"
          | 2 -> Net.set_muted net (op mod n) (op land 1 = 0)
          | 3 -> Net.set_drop_prob net (if op land 1 = 0 then 0.5 else 0.0)
          | 4 ->
              Net.set_partition net
                (if op land 1 = 0 then
                   Some (fun ~src ~dst -> src = 0 && dst = 1)
                 else None)
          | 5 -> Net.set_dup_prob net (if op land 1 = 0 then 0.5 else 0.0)
          | 6 ->
              Net.set_reorder net
                (if op land 1 = 0 then Some { Net.prob = 0.5; extra = 0.2 }
                 else None)
          | _ -> Net.broadcast net ~src:(i mod n) "b")
        ops;
      let mid = invariant engine in
      ignore (Engine.run ~until:0.04 engine);
      let partial = invariant engine in
      ignore (Engine.run engine);
      mid && partial && invariant engine && in_flight engine = 0)

(* A fault-free send skips its idle loss, duplication and reorder streams
   instead of drawing them. Two identical networks make the same sends: one
   takes that path, the other is held on the general loop by an idle
   reorder fault or by an enabled trace. Under a delay override and under a
   scripted delay policy, and then with loss, duplication and reordering
   switched on (whose rolls come out the same only if the skipped streams
   stand where the drawn ones do), both deliver the same copies at the
   same times in the same order, and every counter agrees. *)
let test_fast_path_matches_general_loop () =
  let world ~force ~delay ~override =
    let trace = Ssba_sim.Trace.create ~enabled:(force = `Trace) () in
    let engine = Engine.create ~trace () in
    let net =
      Net.create ~engine ~n:5 ~delay ~rng:(Rng.create 29)
        ~kind_of:(fun p -> if p.[0] = 'b' then "bcast" else "single")
        ()
    in
    if force = `Reorder then
      Net.set_reorder net (Some { Net.prob = 0.0; extra = 1.0 });
    if override then
      Net.set_delay_override net
        (Some
           (fun ~src ~dst _ ->
             if (src + dst) mod 3 = 0 then Some (0.002 *. float_of_int (dst + 1))
             else None));
    let log = ref [] in
    for i = 0 to 4 do
      Net.set_handler net i (fun m ->
          log := (Engine.now engine, m.Msg.src, m.Msg.dst, m.Msg.payload) :: !log)
    done;
    let round tag =
      let t0 = Engine.now engine in
      for k = 0 to 11 do
        Engine.schedule engine ~at:(t0 +. (0.003 *. float_of_int k)) (fun () ->
            Net.broadcast net ~src:(k mod 5) (Printf.sprintf "b%s%d" tag k);
            Net.send net ~src:((k + 1) mod 5) ~dst:(k * 3 mod 5)
              (Printf.sprintf "s%s%d" tag k))
      done;
      ignore (Engine.run engine)
    in
    round "quiet";
    Net.set_drop_prob net 0.3;
    Net.set_dup_prob net 0.3;
    Net.set_reorder net (Some { Net.prob = 0.5; extra = 0.004 });
    round "lossy";
    let names =
      [ "net.sent"; "net.delivered"; "net.dropped"; "net.duplicated";
        "net.reordered"; "net.sent.bcast"; "net.sent.single";
        "engine.scheduled"; "engine.events" ]
    in
    (List.rev !log, List.map (fun name -> (name, counter engine name)) names,
     in_flight engine)
  in
  let scripted =
    Delay.Scripted
      {
        default = 0.004;
        links =
          [ ((0, 1), [ 0.001; 0.009; 0.002 ]); ((2, 2), [ 0.0; 0.007 ]);
            ((3, 0), [ 0.005 ]) ];
      }
  in
  List.iter
    (fun (what, delay, override) ->
      let fast_log, fast_counts, fast_in_flight = world ~force:`None ~delay ~override in
      check_bool (what ^ ": the lossy round dropped, duplicated and reordered") true
        (List.assoc "net.dropped" fast_counts > 0
        && List.assoc "net.duplicated" fast_counts > 0
        && List.assoc "net.reordered" fast_counts > 0);
      List.iter
        (fun (held, force) ->
          let log, counts, in_flight = world ~force ~delay ~override in
          let what = Printf.sprintf "%s, %s" what held in
          check_int (what ^ ": deliveries") (List.length log) (List.length fast_log);
          check_bool (what ^ ": same copies, times and order") true (fast_log = log);
          List.iter2
            (fun (name, fast) (_, general) -> check_int (what ^ ": " ^ name) general fast)
            fast_counts counts;
          check_int (what ^ ": in flight") in_flight fast_in_flight)
        [ ("idle reorder", `Reorder); ("trace on", `Trace) ])
    [ ("override", Delay.uniform ~lo:0.001 ~hi:0.01, true); ("scripted", scripted, false) ]

let suite =
  [
    case "delivery timing + authentication" test_delivery_timing;
    case "no handler counts as drop" test_no_handler_counts_as_drop;
    case "broadcast includes self" test_broadcast_includes_self;
    case "uniform delay bounds" test_uniform_delay_within_bounds;
    case "mute (crash)" test_mute;
    case "partition" test_partition;
    case "drop probability" test_drop_prob;
    case "forged injection" test_forged;
    case "delay override" test_delay_override;
    case "NaN delays rejected" test_nan_delay_rejected;
    case "per-kind statistics" test_kind_stats;
    case "bad destination" test_bad_destination;
    case "metrics registry feed" test_metrics_registry_feed;
    case "trace events" test_trace_events;
    case "duplicate injection" test_duplicate;
    case "reorder injection" test_reorder;
    case "per-concern rng streams" test_rng_streams_independent;
    case "envelope re-entrancy: a handler's sends leave its envelope"
      test_envelope_reentrancy;
    Helpers.qcheck prop_conservation;
    case "fault-free sends skip their idle streams like the general loop"
      test_fast_path_matches_general_loop;
  ]
