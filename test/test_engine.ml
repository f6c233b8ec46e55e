(* Tests for the discrete-event engine. *)

open Helpers
module Engine = Ssba_sim.Engine

let test_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:3.0 (fun () -> log := 3 :: !log);
  Engine.schedule e ~at:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule e ~at:2.0 (fun () -> log := 2 :: !log);
  let stats = Engine.run e in
  check_bool "events in time order" true (List.rev !log = [ 1; 2; 3 ]);
  check_int "all processed" 3 stats.Engine.events_processed;
  check_bool "queue exhausted" true stats.Engine.queue_exhausted;
  check_float "end time" 3.0 stats.Engine.end_time

let test_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.schedule e ~at:1.0 (fun () -> log := i :: !log)
  done;
  ignore (Engine.run e);
  check_bool "equal times run in scheduling order" true
    (List.rev !log = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ])

let test_now_advances () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.schedule e ~at:0.5 (fun () -> seen := Engine.now e :: !seen);
  Engine.schedule e ~at:1.5 (fun () -> seen := Engine.now e :: !seen);
  ignore (Engine.run e);
  check_bool "now reflects event times" true (List.rev !seen = [ 0.5; 1.5 ])

let test_schedule_during_run () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:1.0 (fun () ->
      log := "a" :: !log;
      Engine.schedule e ~at:1.0 (fun () -> log := "nested" :: !log));
  Engine.schedule e ~at:2.0 (fun () -> log := "b" :: !log);
  ignore (Engine.run e);
  check_bool "nested same-time event runs before later ones" true
    (List.rev !log = [ "a"; "nested"; "b" ])

let test_past_clamped () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:2.0 (fun () ->
      (* scheduling in the past clamps to the present *)
      Engine.schedule e ~at:1.0 (fun () -> log := Engine.now e :: !log));
  ignore (Engine.run e);
  check_bool "past event clamped to now" true (!log = [ 2.0 ])

let test_until () =
  let e = Engine.create () in
  let ran = ref 0 in
  Engine.schedule e ~at:1.0 (fun () -> incr ran);
  Engine.schedule e ~at:5.0 (fun () -> incr ran);
  let stats = Engine.run ~until:2.0 e in
  check_int "only events before the horizon" 1 !ran;
  check_bool "not exhausted" false stats.Engine.queue_exhausted;
  check_float "time parked at horizon" 2.0 (Engine.now e);
  check_int "future event still queued" 1 (Engine.pending e);
  (* a horizon in the past leaves the clock where it is *)
  let stats = Engine.run ~until:1.5 e in
  check_float "the clock never runs backwards" 2.0 stats.Engine.end_time;
  (* a second run picks up the rest *)
  ignore (Engine.run e);
  check_int "second run completes" 2 !ran

let test_max_events () =
  let e = Engine.create () in
  for i = 0 to 9 do
    Engine.schedule e ~at:(float_of_int i) (fun () -> ())
  done;
  let stats = Engine.run ~max_events:4 e in
  check_int "bounded" 4 stats.Engine.events_processed;
  check_int "rest queued" 6 (Engine.pending e)

let test_stop () =
  let e = Engine.create () in
  let ran = ref 0 in
  Engine.schedule e ~at:1.0 (fun () ->
      incr ran;
      Engine.stop e);
  Engine.schedule e ~at:2.0 (fun () -> incr ran);
  ignore (Engine.run e);
  check_int "stopped after first" 1 !ran

let test_schedule_after () =
  let e = Engine.create () in
  let at = ref 0.0 in
  Engine.schedule e ~at:1.0 (fun () ->
      Engine.schedule_after e ~delay:0.5 (fun () -> at := Engine.now e));
  ignore (Engine.run e);
  check_float "after = now + delay" 1.5 !at;
  Alcotest.check_raises "negative delay rejected"
    (Invalid_argument "Engine.schedule_after: negative delay") (fun () ->
      Engine.schedule_after e ~delay:(-1.0) (fun () -> ()))

(* NaN passes every check written as a "bad" test: [at < now] and
   [delay < 0.0] are both false for it. An event scheduled with
   [schedule_after ~delay:nan] used to run under [run ~until:2.0] (NaN is
   not [> until]), set [now] to NaN, pass NaN on to every timer it armed,
   and end the run at [end_time = nan]. Each entry point now raises. *)
let test_nan_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "schedule at NaN"
    (Invalid_argument "Engine.schedule: NaN time") (fun () ->
      Engine.schedule e ~at:Float.nan (fun () -> ()));
  Alcotest.check_raises "schedule_after a NaN delay"
    (Invalid_argument "Engine.schedule_after: NaN delay") (fun () ->
      Engine.schedule_after e ~delay:Float.nan (fun () -> ()));
  (* A batch's keys have one writer, which rejects a NaN time, so no NaN
     sub-event reaches [schedule_batch]. *)
  let b = Ssba_sim.Event_queue.make_batch () in
  Alcotest.check_raises "a NaN sub-event time never enters a batch"
    (Invalid_argument "Event_queue.set_key: NaN time") (fun () ->
      Ssba_sim.Event_queue.set_key b 0 ~at:Float.nan ~seq:(Engine.next_seq e)
        ~tag:0);
  let lane = Ssba_sim.Event_queue.make_batch () in
  Alcotest.check_raises "append_after a NaN delay"
    (Invalid_argument "Engine.schedule_after: NaN delay") (fun () ->
      Engine.append_after e lane ~delay:Float.nan ~tag:0);
  Alcotest.check_raises "append_after a negative delay"
    (Invalid_argument "Engine.schedule_after: negative delay") (fun () ->
      Engine.append_after e lane ~delay:(-1.0) ~tag:0);
  check_int "nothing queued" 0 (Engine.pending e);
  let ran = ref 0 in
  Engine.schedule e ~at:1.0 (fun () -> incr ran);
  let stats = Engine.run ~until:2.0 e in
  check_int "the valid event ran" 1 !ran;
  check_float "time stays a number" 1.0 stats.Engine.end_time

let test_trace_recording () =
  let tr = Ssba_sim.Trace.create ~enabled:true () in
  let e = Engine.create ~trace:tr () in
  Engine.schedule e ~at:1.0 (fun () ->
      Engine.record e ~node:3 (Ssba_sim.Trace.Ig3_failure { g = 5 }));
  ignore (Engine.run e);
  match Ssba_sim.Trace.to_list tr with
  | [ entry ] ->
      check_float "entry time" 1.0 entry.Ssba_sim.Trace.time;
      check_int "entry node" 3 entry.Ssba_sim.Trace.node;
      check_str "entry kind" "ig3-failure" (Ssba_sim.Trace.entry_kind entry)
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)

let test_deterministic_replay () =
  let run () =
    let e = Engine.create () in
    let log = ref [] in
    let rng = Ssba_sim.Rng.create 4 in
    for _ = 1 to 50 do
      let t = Ssba_sim.Rng.float rng 10.0 in
      Engine.schedule e ~at:t (fun () -> log := t :: !log)
    done;
    ignore (Engine.run e);
    !log
  in
  check_bool "identical runs" true (run () = run ())

let test_realtime_same_results () =
  (* run_realtime must produce exactly the same event order as run *)
  let mk () =
    let e = Engine.create () in
    let log = ref [] in
    let rng = Ssba_sim.Rng.create 6 in
    for i = 0 to 30 do
      let t = Ssba_sim.Rng.float rng 0.002 in
      Engine.schedule e ~at:t (fun () -> log := (i, t) :: !log)
    done;
    (e, log)
  in
  let e1, log1 = mk () in
  ignore (Engine.run e1);
  let e2, log2 = mk () in
  (* 100x speed: ~20 microseconds of wall time *)
  ignore (Engine.run_realtime ~speed:100.0 e2);
  check_bool "identical order and results" true (!log1 = !log2)

let test_realtime_paces () =
  let e = Engine.create () in
  Engine.schedule e ~at:0.2 (fun () -> ());
  let wall0 = Unix.gettimeofday () in
  ignore (Engine.run_realtime ~speed:10.0 e);
  let elapsed = Unix.gettimeofday () -. wall0 in
  (* 0.2 virtual seconds at 10x => ~20ms wall; allow generous slack *)
  check_bool "slept roughly the scaled delay" true (elapsed >= 0.015 && elapsed < 1.0)

let test_realtime_bad_speed () =
  let e = Engine.create () in
  Alcotest.check_raises "zero speed rejected"
    (Invalid_argument "Engine.run_realtime: speed must be positive") (fun () ->
      ignore (Engine.run_realtime ~speed:0.0 e))

let test_realtime_nan_speed () =
  let e = Engine.create () in
  Alcotest.check_raises "NaN speed rejected"
    (Invalid_argument "Engine.run_realtime: speed must be positive") (fun () ->
      ignore (Engine.run_realtime ~speed:Float.nan e))

(* [run_realtime] only adds sleeps to [run]: the stats of a run cut by
   [until], by [max_events], by [stop] (event 5) and then by the empty
   queue are [run]'s, and so is the [engine.events] count. *)
let test_realtime_same_stats () =
  let outcome ~realtime (until, max_events) =
    let e = Engine.create () in
    for i = 1 to 6 do
      Engine.schedule e ~at:(0.0001 *. float_of_int i) (fun () ->
          if i = 5 then Engine.stop e)
    done;
    let run () =
      if realtime then Engine.run_realtime ~speed:100.0 ?until ?max_events e
      else Engine.run ?until ?max_events e
    in
    let first = run () in
    let second = run () in
    (first, second, Ssba_sim.Metrics.find_counter (Engine.metrics e) "engine.events")
  in
  List.iter
    (fun cut ->
      check_bool "same stats and engine.events" true
        (outcome ~realtime:false cut = outcome ~realtime:true cut))
    [ (Some 0.00025, None); (None, Some 3); (None, None); (None, Some 0) ]

(* Without the check the event below would run: [at > NaN] is false. *)
let test_nan_until_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~at:0.1 ignore;
  Alcotest.check_raises "run" (Invalid_argument "Engine.run: NaN until") (fun () ->
      ignore (Engine.run ~until:Float.nan e));
  Alcotest.check_raises "run_realtime" (Invalid_argument "Engine.run: NaN until")
    (fun () -> ignore (Engine.run_realtime ~until:Float.nan e));
  check_int "nothing ran" 1 (Engine.pending e)

let suite =
  [
    case "time order" test_time_order;
    case "FIFO ties" test_fifo_ties;
    case "now advances" test_now_advances;
    case "schedule during run" test_schedule_during_run;
    case "past clamped" test_past_clamped;
    case "until horizon" test_until;
    case "max events" test_max_events;
    case "stop" test_stop;
    case "schedule_after" test_schedule_after;
    case "NaN times rejected" test_nan_rejected;
    case "trace recording" test_trace_recording;
    case "deterministic replay" test_deterministic_replay;
    case "realtime: same results" test_realtime_same_results;
    case "realtime: paces" test_realtime_paces;
    case "realtime: bad speed" test_realtime_bad_speed;
    case "realtime: NaN speed" test_realtime_nan_speed;
    case "realtime: run's stats" test_realtime_same_stats;
    case "NaN until rejected" test_nan_until_rejected;
  ]
