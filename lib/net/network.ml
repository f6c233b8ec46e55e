(* Bounded-delay authenticated point-to-point network (paper §2, Def. 2).

   Delivery is realized by fan-out descriptors on the engine's queue (see
   the arena below), one per send call. While the network is *correct* every send is delivered within the configured delay
   policy and the sender identity is authentic. Scenario code can make the
   network *faulty* (the incoherent period preceding stabilization, or a
   persistently lossy deployment link) by setting a drop probability,
   duplication probability, reordering, partitioning links, or injecting
   forged garbage; experiments then lift the faults and measure convergence.

   Accounting invariant, enforced by the harness on every run:

     attempts = delivered + dropped + in_flight
     where attempts = sent + duplicated

   Every message that enters the network — including forged injections and
   fault-injected duplicate copies — is counted exactly once as sent or
   duplicated, and leaves the in-flight set as exactly one of delivered (a
   handler ran) or dropped (mute/partition/random loss at send time, or no
   handler at delivery time). Counters live in the engine's metrics registry
   so exports see them under the net.* names.

   Determinism: each fault concern (loss, delay, duplication, reordering)
   owns a dedicated RNG stream split off the creation RNG, and [send]
   advances every stream unconditionally, once per destination (twice for
   reordering): by drawing, or on a fault-free send by skipping ahead
   ([Rng.skip]) past rolls that could change nothing. Toggling one fault
   knob mid-run therefore never shifts the samples another concern sees,
   and two scenarios that differ only in a fault schedule stay
   sample-for-sample comparable. *)

module Rng = Ssba_sim.Rng
module Engine = Ssba_sim.Engine
module Event_queue = Ssba_sim.Event_queue
module Trace = Ssba_sim.Trace
module Metrics = Ssba_sim.Metrics

type 'a handler = 'a Msg.t -> unit

type reorder = { prob : float; extra : float }

(* A free stack of descriptor ids. *)
type free = { mutable ids : int array; mutable top : int }

(* The delivery arena. A descriptor is an engine batch whose id names its
   row in the network's columns: the sender in [srcs] and the payload in
   [payloads], shared by all of its sub-events, and its size class in
   [wide]. A sub-event's tag is its destination. So a delivery reads the
   batch, one key triple and the payload, writes them into the network's
   one envelope and calls the handler; every descriptor fires through the
   same closure, [fire]. A single send or forged injection takes a 1-slot
   descriptor off [narrow], a broadcast an n-slot one off [wide_free]; only
   a duplicated copy grows one. A descriptor goes back on its stack once
   its last sub-event has fired, so steady-state delivery allocates nothing
   beyond the peak number of sends in flight. *)
type 'a t = {
  engine : Engine.t;
  n : int;
  loss_rng : Rng.t;
  delay_rng : Rng.t;
  dup_rng : Rng.t;
  reorder_rng : Rng.t;
  mutable pool_rng : Rng.t;
      (* drives [scramble_pool] garbage; its own stream so scrambling the
         arena never shifts the samples any fault concern sees *)
  mutable batches : Event_queue.batch array;  (* id -> descriptor *)
  mutable srcs : int array;  (* id -> sender (claimed, for a forged one) *)
  mutable payloads : 'a array;  (* id -> payload *)
  mutable wide : bool array;  (* id -> made for broadcasts *)
  mutable descs : int;  (* descriptors made: ids [0, descs) *)
  narrow : free;  (* free 1-slot descriptors *)
  wide_free : free;  (* free n-slot descriptors *)
  mutable env : 'a Msg.t option;
      (* the one envelope of every delivery, made with the first descriptor
         (making it takes a payload) *)
  mutable fire : Event_queue.batch -> int -> unit;  (* every descriptor's *)
  c_pool_fanouts : Metrics.counter;  (* descriptors ever allocated *)
  c_pool_slots : Metrics.counter;  (* delivery slots ever allocated *)
  g_pool_in_use : Metrics.gauge;  (* descriptors currently armed *)
  mutable delay : Delay.t;
  delay_counts : Delay.counters;
      (* per-link draw counts for [Delay.Scripted]; they outlive [set_delay] *)
  mutable handlers : 'a handler option array;
  mutable drop_prob : float;  (* applied only while the network is faulty-capable *)
  mutable dup_prob : float;  (* probability a successful send gets a second copy *)
  mutable reorder : reorder option;
      (* with [prob], stretch a delivery by up to [extra] beyond its drawn
         delay, letting later sends overtake it *)
  mutable blocked : (src:int -> dst:int -> bool) option;  (* partition predicate *)
  muted : bool array;  (* crashed senders, by node: sends silently dropped *)
  mutable delay_override : (src:int -> dst:int -> 'a -> float option) option;
      (* adversary-chosen delivery delay for selected messages; the paper's
         model lets a faulty sender's messages be arbitrarily late (masked as
         part of the f faults) *)
  kind_of : ('a -> string) option;  (* classifier for per-kind statistics *)
  mutable kinds : string array;  (* the kinds seen, [0, n_kinds) *)
  mutable kind_counters : Metrics.counter array;  (* kind -> [net.sent.<kind>] *)
  mutable n_kinds : int;
  c_sent : Metrics.counter;
  c_delivered : Metrics.counter;
  c_dropped : Metrics.counter;
  c_duplicated : Metrics.counter;
  c_reordered : Metrics.counter;
  g_in_flight : Metrics.gauge;  (* scheduled, undelivered: moves by exactly 1.0 *)
}

let size t = t.n
let set_handler t node h = t.handlers.(node) <- Some h
let set_delay t delay = t.delay <- delay
let set_drop_prob t p = t.drop_prob <- p
let drop_prob t = t.drop_prob
let set_dup_prob t p = t.dup_prob <- p
let dup_prob t = t.dup_prob
let set_reorder t r = t.reorder <- r
let set_partition t pred = t.blocked <- pred

let set_muted t node muted =
  if node < 0 || node >= t.n then invalid_arg "Network.set_muted: bad node";
  t.muted.(node) <- muted

let[@inline] is_muted t node =
  node >= 0 && node < t.n && Array.unsafe_get t.muted node
let set_delay_override t f = t.delay_override <- f

let messages_delivered t = Metrics.value t.c_delivered

let kind_of_payload t payload =
  match t.kind_of with None -> None | Some f -> Some (f payload)

(* Register the counter of a kind not seen before. The arrays double by
   [Array.append]; the first ones are made with the new entry as filler. *)
let new_kind t kind =
  let c = Metrics.counter (Engine.metrics t.engine) ("net.sent." ^ kind) in
  let k = t.n_kinds in
  if k = Array.length t.kinds then begin
    if k = 0 then begin
      t.kinds <- Array.make 4 kind;
      t.kind_counters <- Array.make 4 c
    end
    else begin
      t.kinds <- Array.append t.kinds t.kinds;
      t.kind_counters <- Array.append t.kind_counters t.kind_counters
    end
  end;
  t.kinds.(k) <- kind;
  t.kind_counters.(k) <- c;
  t.n_kinds <- k + 1;
  c

(* The counter of [kind] among the few kinds seen. Classifiers return
   string literals, so a scan by physical equality finds it; a string built
   at run time falls back to a scan by value, and a new kind registers.
   Both scans are top-level functions: local ones would allocate their
   closures on every send. *)
let rec kind_by_value t kind i =
  if i = t.n_kinds then new_kind t kind
  else if String.equal t.kinds.(i) kind then t.kind_counters.(i)
  else kind_by_value t kind (i + 1)

let rec kind_counter t kind i =
  if i = t.n_kinds then kind_by_value t kind 0
  else if t.kinds.(i) == kind then t.kind_counters.(i)
  else kind_counter t kind (i + 1)

(* [count] sends of one payload: classified once. *)
let count_sent t ~count payload =
  Metrics.incr_by t.c_sent count;
  match t.kind_of with
  | None -> ()
  | Some f -> Metrics.incr_by (kind_counter t (f payload) 0) count

let trace_msg t payload =
  (* Only rendered when a trace record is actually built (enabled traces). *)
  match kind_of_payload t payload with None -> "?" | Some k -> k

let count_dropped t ~src ~dst ~reason payload =
  Metrics.incr t.c_dropped;
  let tr = Engine.trace t.engine in
  if Trace.is_enabled tr then
    Engine.record t.engine ~node:(-1)
      (Trace.Drop { src; dst; msg = trace_msg t payload; reason })

(* ---- the delivery arena -------------------------------------------------- *)

let push_free st id =
  if st.top = Array.length st.ids then begin
    let ids = Array.make (max 8 (2 * st.top)) 0 in
    Array.blit st.ids 0 ids 0 st.top;
    st.ids <- ids
  end;
  st.ids.(st.top) <- id;
  st.top <- st.top + 1

let release t (b : Event_queue.batch) =
  b.b_count <- 0;
  b.b_next <- 0;
  let id = b.b_id in
  push_free (if t.wide.(id) then t.wide_free else t.narrow) id;
  Metrics.add t.g_pool_in_use (-1.0)

(* Sub-event [j] of descriptor [b] pops: write its sender, destination and
   payload into the envelope, deliver, and recycle the descriptor once the
   last sub-event has fired. Release happens after the handler returns, so
   no send made inside the handler can take this descriptor; and a send
   never writes the envelope (the delay override gets the fields), so the
   handler reads its own delivery until it returns. *)
let fire t (b : Event_queue.batch) j =
  let id = b.b_id in
  let src = Array.unsafe_get t.srcs id in
  let dst = Event_queue.key_tag b j in
  let payload = Array.unsafe_get t.payloads id in
  Metrics.add t.g_in_flight (-1.0);
  (match (t.handlers.(dst), t.env) with
  | Some h, Some m ->
      Metrics.incr t.c_delivered;
      let tr = Engine.trace t.engine in
      if Trace.is_enabled tr then
        Engine.record t.engine ~node:dst
          (Trace.Deliver { src; dst; msg = trace_msg t payload });
      Msg.set m ~src ~dst payload;
      h m
  | _ ->
      (* A destination without a handler (a skipped slot) consumes the
         message: it must leave the in-flight set as a drop or the
         conservation invariant cannot be stated. *)
      count_dropped t ~src ~dst ~reason:"no-handler" payload);
  if b.b_next >= b.b_count then release t b

(* Double every column. The first columns are made with the new row as
   filler; later ones by [Array.append], since [Array.make] past 256 slots
   with a young filler forces a minor collection. Rows past [descs] are
   never read before they are written. *)
let grow_columns t b payload =
  if t.descs = 0 then begin
    t.batches <- Array.make 8 b;
    t.srcs <- Array.make 8 0;
    t.payloads <- Array.make 8 payload;
    t.wide <- Array.make 8 false
  end
  else begin
    t.batches <- Array.append t.batches t.batches;
    t.srcs <- Array.append t.srcs t.srcs;
    t.payloads <- Array.append t.payloads t.payloads;
    t.wide <- Array.append t.wide t.wide
  end

let new_descriptor t ~wide payload =
  let id = t.descs in
  let capacity = if wide then t.n else 1 in
  let b = Event_queue.make_batch ~capacity ~id () in
  b.b_fire <- t.fire;
  if id = Array.length t.batches then grow_columns t b payload;
  t.batches.(id) <- b;
  t.wide.(id) <- wide;
  t.descs <- id + 1;
  if t.env = None then t.env <- Some (Msg.make ~src:0 ~dst:0 payload);
  Metrics.incr t.c_pool_fanouts;
  Metrics.incr_by t.c_pool_slots capacity;
  id

(* Take a descriptor of the send's size off its free stack (or make one)
   and write the row every sub-event shares. *)
let acquire t ~wide ~src payload =
  Metrics.add t.g_pool_in_use 1.0;
  let st = if wide then t.wide_free else t.narrow in
  let id =
    if st.top > 0 then begin
      st.top <- st.top - 1;
      st.ids.(st.top)
    end
    else new_descriptor t ~wide payload
  in
  t.srcs.(id) <- src;
  t.payloads.(id) <- payload;
  t.batches.(id)

(* Grow [b]'s key array to hold slot [i]: only a duplicated copy can need
   it. The growth counts in [net.pool.slots]. *)
let grow_slots t b i =
  let cap = Event_queue.batch_capacity b in
  Event_queue.ensure_batch_capacity b (i + 1);
  Metrics.incr_by t.c_pool_slots (Event_queue.batch_capacity b - cap)

(* Arm slot [i] for [dst]: record its delivery time and reserve its
   tie-break seq — in the very order the per-entry scheme called
   [Engine.schedule], which is what keeps batched runs bit-identical to the
   old per-send scheme. [@inline], so that [at] reaches the key array
   unboxed: a float argument of a call that is not inlined is boxed, two
   words per armed slot. *)
let[@inline] arm_slot t b i ~dst ~at =
  if i >= Event_queue.batch_capacity b then grow_slots t b i;
  Event_queue.set_key b i ~at ~seq:(Engine.next_seq t.engine) ~tag:dst;
  Metrics.add t.g_in_flight 1.0

(* Hand the descriptor to the engine as ONE heap entry; the engine sorts
   the armed slots by (at, seq). *)
let finish t (b : Event_queue.batch) count =
  if count = 0 then release t b
  else begin
    b.b_count <- count;
    b.b_next <- 0;
    Engine.schedule_batch t.engine b
  end

let create ?(drop_prob = 0.0) ?(dup_prob = 0.0) ?reorder ?kind_of ~engine ~n
    ~delay ~rng () =
  if n <= 0 then invalid_arg "Network.create: n must be positive";
  let metrics = Engine.metrics engine in
  let t = {
    engine;
    n;
    (* The four fault streams split inside the record literal, exactly as
       they always have: their split order is pinned by every corpus digest.
       [pool_rng] is initialised to the parent and re-split strictly after
       the record is built, so adding the arena stream moved no existing
       stream. *)
    loss_rng = Rng.split rng;
    delay_rng = Rng.split rng;
    dup_rng = Rng.split rng;
    reorder_rng = Rng.split rng;
    pool_rng = rng;
    batches = [||];
    srcs = [||];
    payloads = [||];
    wide = [||];
    descs = 0;
    narrow = { ids = [||]; top = 0 };
    wide_free = { ids = [||]; top = 0 };
    env = None;
    fire = (fun _ _ -> ());
    c_pool_fanouts = Metrics.counter metrics "net.pool.fanouts";
    c_pool_slots = Metrics.counter metrics "net.pool.slots";
    g_pool_in_use = Metrics.gauge metrics "net.pool.in_use";
    delay;
    delay_counts = Delay.counters ();
    handlers = Array.make n None;
    drop_prob;
    dup_prob;
    reorder;
    blocked = None;
    muted = Array.make n false;
    delay_override = None;
    kind_of;
    kinds = [||];
    kind_counters = [||];
    n_kinds = 0;
    c_sent = Metrics.counter metrics "net.sent";
    c_delivered = Metrics.counter metrics "net.delivered";
    c_dropped = Metrics.counter metrics "net.dropped";
    c_duplicated = Metrics.counter metrics "net.duplicated";
    c_reordered = Metrics.counter metrics "net.reordered";
    g_in_flight = Metrics.gauge metrics "net.in_flight";
  }
  in
  t.pool_rng <- Rng.split rng;
  t.fire <- (fun b j -> fire t b j);
  t

(* ---- sending ------------------------------------------------------------ *)

(* Written so that NaN fails it: a NaN delay would arm a NaN time. *)
let check_delay d =
  if not (d >= 0.0) then
    invalid_arg
      (if d < 0.0 then "Engine.schedule_after: negative delay"
       else "Engine.schedule_after: NaN delay")

(* The delay of one copy: the override's, when it names one, or the
   policy's draw. *)
let[@inline] delay_of t ~src ~dst payload drawn =
  match t.delay_override with
  | None -> drawn
  | Some f -> ( match f ~src ~dst payload with Some d -> d | None -> drawn)

(* No fault can touch a send from [src]: no loss or duplication
   probability, no reordering, an unmuted sender, no partition, and no
   trace to write. *)
let fault_free t tr ~src =
  (not (t.drop_prob > 0.0))
  && (not (t.dup_prob > 0.0))
  && (match (t.reorder, t.blocked) with None, None -> true | _ -> false)
  && (not (is_muted t src))
  && not (Trace.is_enabled tr)

(* The general loop: one send per destination in [first, last], batched
   into a single pooled fan-out descriptor. The per-destination draw
   schedule, fault gauntlet, counter updates and seq reservations replicate
   the per-entry scheme sample-for-sample: one sample per concern per send,
   from that concern's own stream, whether or not the fault is active —
   including the delay sample, which is drawn even for messages that end up
   muted, partitioned or lost. Toggling any one fault therefore never shifts
   the samples another concern (or a surviving message) observes. *)
let send_general t tr b ~src ~first ~last payload =
  let now = Engine.now t.engine in
  let count = ref 0 in
  for dst = first to last do
    if Trace.is_enabled tr then
      Engine.record t.engine ~node:src
        (Trace.Send { src; dst; msg = trace_msg t payload });
    let loss_roll = Rng.float t.loss_rng 1.0 in
    let dup_roll = Rng.float t.dup_rng 1.0 in
    let reorder_roll = Rng.float t.reorder_rng 1.0 in
    let reorder_frac = Rng.float t.reorder_rng 1.0 in
    let drawn_delay =
      Delay.draw t.delay ~rng:t.delay_rng ~counters:t.delay_counts ~src ~dst
    in
    let muted = is_muted t src in
    let blocked =
      (not muted)
      && (match t.blocked with None -> false | Some pred -> pred ~src ~dst)
    in
    let lost = (not muted) && (not blocked) && loss_roll < t.drop_prob in
    if muted then count_dropped t ~src ~dst ~reason:"muted" payload
    else if blocked then count_dropped t ~src ~dst ~reason:"partition" payload
    else if lost then count_dropped t ~src ~dst ~reason:"loss" payload
    else begin
      let extra =
        match t.reorder with
        | Some { prob; extra } when reorder_roll < prob && extra > 0.0 ->
            Metrics.incr t.c_reordered;
            reorder_frac *. extra
        | _ -> 0.0
      in
      let d = delay_of t ~src ~dst payload drawn_delay +. extra in
      check_delay d;
      arm_slot t b !count ~dst ~at:(now +. d);
      incr count;
      if dup_roll < t.dup_prob then begin
        (* A duplicated copy enters the accounting as [duplicated] (not sent)
           and then flows through delivery/drop like any message, so the
           generalized conservation identity keeps holding. Its delay is
           drawn from the dup stream: duplication must not consume delay
           samples. The copy gets its own slot in the same descriptor. *)
        Metrics.incr t.c_duplicated;
        if Trace.is_enabled tr then
          Engine.record t.engine ~node:src
            (Trace.Duplicate { src; dst; msg = trace_msg t payload });
        let dup_delay =
          Delay.draw t.delay ~rng:t.dup_rng ~counters:t.delay_counts ~src ~dst
        in
        let d2 = dup_delay +. extra in
        check_delay d2;
        arm_slot t b !count ~dst ~at:(now +. d2);
        incr count
      end
    end
  done;
  finish t b !count

(* The loop of a fault-free send. The general loop would draw each
   destination's loss and duplication rolls and two reorder rolls and then
   ignore them all, so the three streams skip ahead in O(1) to exactly where
   those draws leave them. What is left per destination is what the general
   loop does when no fault applies: draw the delay, ask the override,
   check, arm. *)
let send_fault_free t b ~src ~first ~last payload =
  let k = last - first + 1 in
  Rng.skip t.loss_rng k;
  Rng.skip t.dup_rng k;
  Rng.skip t.reorder_rng (2 * k);
  let now = Engine.now t.engine in
  for dst = first to last do
    let drawn =
      Delay.draw t.delay ~rng:t.delay_rng ~counters:t.delay_counts ~src ~dst
    in
    let d = delay_of t ~src ~dst payload drawn in
    check_delay d;
    arm_slot t b (dst - first) ~dst ~at:(now +. d)
  done;
  finish t b k

(* A send to every destination in [first, last], as one descriptor. *)
let send_range t ~wide ~src ~first ~last payload =
  let tr = Engine.trace t.engine in
  count_sent t ~count:(last - first + 1) payload;
  let b = acquire t ~wide ~src payload in
  if fault_free t tr ~src then send_fault_free t b ~src ~first ~last payload
  else send_general t tr b ~src ~first ~last payload

let send t ~src ~dst payload =
  if dst < 0 || dst >= t.n then invalid_arg "Network.send: bad destination";
  send_range t ~wide:false ~src ~first:dst ~last:dst payload

let broadcast t ~src payload =
  send_range t ~wide:true ~src ~first:0 ~last:(t.n - 1) payload

(* Incoherent-period garbage: deliver a message claiming to come from
   [claimed_src] after [delay]. Used by the transient-fault injector only.
   Forged messages enter the accounting like any other send, so the
   conservation invariant keeps holding during scrambles. The forged path
   draws no fault samples: injection is itself adversary-scheduled. *)
let inject_forged t ~claimed_src ~dst ~delay payload =
  check_delay delay;
  count_sent t ~count:1 payload;
  let now = Engine.now t.engine in
  let b = acquire t ~wide:false ~src:claimed_src payload in
  arm_slot t b 0 ~dst ~at:(now +. delay);
  finish t b 1

(* ---- arena scrambling (transient-fault injection) ----------------------- *)

(* Corrupt every FREE descriptor's row and key slots — the Session_table
   safety pattern: a transient fault may trash values, never the pool's
   capacity or occupancy. A free descriptor's row and slots are fully
   overwritten on acquire and arm, so this is semantically invisible to
   subsequent deliveries; the test suite pins both properties. Draws come
   from the arena's own stream, so scrambling never shifts a fault-concern
   sample. *)
let scramble_pool t ~payload =
  let rng = t.pool_rng in
  let scramble st =
    for k = 0 to st.top - 1 do
      let id = st.ids.(k) in
      t.srcs.(id) <- Rng.int rng t.n;
      t.payloads.(id) <- payload rng;
      let b = t.batches.(id) in
      for i = 0 to Event_queue.batch_capacity b - 1 do
        Event_queue.set_key b i ~at:(Rng.float rng 1.0e9)
          ~seq:(Rng.int rng 1_000_000) ~tag:(Rng.int rng t.n)
      done
    done
  in
  scramble t.narrow;
  scramble t.wide_free

let pool_slots_allocated t = Metrics.value t.c_pool_slots
let pool_free t = t.narrow.top + t.wide_free.top

let link t =
  {
    Link.n = t.n;
    send = (fun ~src ~dst payload -> send t ~src ~dst payload);
    broadcast = (fun ~src payload -> broadcast t ~src payload);
    set_handler = (fun node h -> set_handler t node h);
  }
