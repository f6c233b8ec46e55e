(* Discrete-event simulation engine.

   The engine owns virtual real time and a priority queue of thunks. Every
   other substrate (network delivery, node timers, fault injection schedules)
   is expressed as a scheduled closure, which keeps the engine agnostic of
   message and protocol types. Events at equal times run in scheduling order
   (a monotone sequence number breaks ties), so runs are fully deterministic.

   The queue is the monomorphic [Event_queue]: its sifts compare raw
   float/int keys and move only scalars, and its push/pop cycle allocates
   nothing (pinned in test_event_queue.ml). [schedule], [schedule_after]
   and [append_after] are [@inline]: release builds inline them into their
   callers and the queue's push or append into them, so a time or delay a
   caller computes, in this module or another, reaches the heap unboxed.

   No time is NaN. [schedule], [schedule_after], [append_after] and the
   network's send path each write their check so that NaN fails it, and
   raise. A NaN key would
   otherwise pass every [<] test: it would run under any [until], set [now]
   to NaN and hand NaN to every timer armed after it. *)

type stats = {
  events_processed : int;
  end_time : float;
  queue_exhausted : bool;  (* false when stopped by [until], [max_events] or [stop] *)
}

type t = {
  now_cell : float array;  (* 1 slot: raw float stores, no per-event boxing *)
  queue : Event_queue.t;
  mutable seq : int;
  trace : Trace.t;
  metrics : Metrics.t;
  c_scheduled : Metrics.counter;
  c_processed : Metrics.counter;
  mutable stopped : bool;
}

let create ?trace () =
  let trace = match trace with Some tr -> tr | None -> Trace.create ~enabled:false () in
  let metrics = Metrics.create () in
  {
    now_cell = [| 0.0 |];
    queue = Event_queue.create ();
    seq = 0;
    trace;
    metrics;
    c_scheduled = Metrics.counter metrics "engine.scheduled";
    c_processed = Metrics.counter metrics "engine.events";
    stopped = false;
  }

let now t = Array.unsafe_get t.now_cell 0
let trace t = t.trace
let metrics t = t.metrics
let pending t = Event_queue.size t.queue

let[@inline] schedule t ~at run =
  (* Scheduling in the past would break causality; clamp to the present so a
     zero-delay event still runs after the current one. *)
  let here = Array.unsafe_get t.now_cell 0 in
  let at =
    if at >= here then at
    else if at < here then here
    else invalid_arg "Engine.schedule: NaN time"
  in
  Event_queue.push t.queue ~at ~seq:t.seq run;
  t.seq <- t.seq + 1;
  Metrics.incr t.c_scheduled

let[@inline] check_delay delay =
  if not (delay >= 0.0) then
    invalid_arg
      (if delay < 0.0 then "Engine.schedule_after: negative delay"
       else "Engine.schedule_after: NaN delay")

let[@inline] schedule_after t ~delay run =
  check_delay delay;
  schedule t ~at:(Array.unsafe_get t.now_cell 0 +. delay) run

(* A lane timer gets the key [schedule_after] would have given it: the same
   [now +. delay] (a non-negative delay never needs [schedule]'s clamp), the
   same seq, the same [engine.scheduled] bump. Only the heap entry is
   shared; [tag] rides beside the key for the lane's owner. *)
let[@inline] append_after t lane ~delay ~tag =
  check_delay delay;
  Event_queue.append t.queue lane
    ~at:(Array.unsafe_get t.now_cell 0 +. delay)
    ~seq:t.seq ~tag;
  t.seq <- t.seq + 1;
  Metrics.incr t.c_scheduled

(* Fan-out batches: the caller (network broadcast) reserves one sequence
   number per sub-event via [next_seq] — in the exact order the per-entry
   scheme would have called [schedule] — then arms the filled descriptor,
   which [schedule_batch] sorts with the queue's scratch. Each reservation
   counts as one scheduled event so metrics are identical to n separate
   [schedule] calls. *)
let next_seq t =
  let s = t.seq in
  t.seq <- t.seq + 1;
  Metrics.incr t.c_scheduled;
  s

let schedule_batch t b =
  Event_queue.sort_batch t.queue b;
  Event_queue.push_batch t.queue b

let stop t = t.stopped <- true

(* The flag is checked before the clock is read: a float passed to another
   module is boxed, and a disabled trace must not allocate (DESIGN.md §7). *)
let record t ~node event =
  if Trace.is_enabled t.trace then Trace.record t.trace ~time:(now t) ~node event

let run ?(until = infinity) ?(max_events = max_int) t =
  (* Checked once, outside the loop: [at > NaN] is never true, so a NaN
     horizon would run for as long as anything reschedules itself. *)
  if Float.is_nan until then invalid_arg "Engine.run: NaN until";
  t.stopped <- false;
  let processed = ref 0 in
  let exhausted = ref false in
  let continue = ref true in
  while !continue do
    if t.stopped || !processed >= max_events then continue := false
    else if Event_queue.is_empty t.queue then begin
      exhausted := true;
      continue := false
    end
    else begin
      let at = Event_queue.min_at t.queue in
      if at > until then begin
        (* Leave future events queued; advance time to the horizon, never
           back: a lane's keys ascend only under a clock that never runs
           backwards. *)
        if until > now t then Array.unsafe_set t.now_cell 0 until;
        continue := false
      end
      else begin
        Array.unsafe_set t.now_cell 0 at;
        incr processed;
        Metrics.incr t.c_processed;
        (* Pop-and-run: a batch sub-event goes straight to its
           descriptor's [b_fire], no closure is built for it. *)
        Event_queue.pop_invoke t.queue
      end
    end
  done;
  { events_processed = !processed; end_time = now t; queue_exhausted = !exhausted }

(* Real-time pacing: sleep until the next event's virtual time, mapped onto
   the wall clock at [speed] virtual seconds per wall second, then let [run]
   process that one event. Turns any deterministic scenario into a live
   demo; determinism of the *results* is unaffected because only the pacing,
   never the order, depends on the wall clock. *)
let run_realtime ?(speed = 1.0) ?(until = infinity) ?(max_events = max_int) t =
  if not (speed > 0.0) then invalid_arg "Engine.run_realtime: speed must be positive";
  let epoch_wall = Unix.gettimeofday () in
  let epoch_virtual = now t in
  let rec go processed =
    if processed >= max_events then
      { events_processed = processed; end_time = now t; queue_exhausted = false }
    else begin
      if not (Event_queue.is_empty t.queue) then begin
        let at = Event_queue.min_at t.queue in
        let lag = epoch_wall +. ((at -. epoch_virtual) /. speed) -. Unix.gettimeofday () in
        if at <= until && lag > 0.0 then Unix.sleepf lag
      end;
      let s = run ~until ~max_events:1 t in
      let processed = processed + s.events_processed in
      if s.events_processed = 0 || t.stopped then { s with events_processed = processed }
      else go processed
    end
  in
  go 0
