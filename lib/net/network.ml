(* Bounded-delay authenticated point-to-point network (paper §2, Def. 2).

   Delivery is realized by scheduling closures on the engine. While the
   network is *correct* every send is delivered within the configured delay
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
   owns a dedicated RNG stream split off the creation RNG, and [send] draws
   from every stream unconditionally, once per send. Toggling one fault knob
   mid-run therefore never shifts the samples another concern sees, and two
   scenarios that differ only in a fault schedule stay sample-for-sample
   comparable. *)

module Rng = Ssba_sim.Rng
module Engine = Ssba_sim.Engine
module Event_queue = Ssba_sim.Event_queue
module Trace = Ssba_sim.Trace
module Metrics = Ssba_sim.Metrics

type 'a handler = 'a Msg.t -> unit

type reorder = { prob : float; extra : float }

(* A pooled fan-out: one engine batch entry (the sub-event keys live in
   [fan_batch]), ONE envelope shared by all of its deliveries, and a
   destination column parallel to the batch's key slots. The sub-events of a
   fan-out differ only in their destination, so [fire_fanout] writes the
   slot's destination into the shared envelope just before the handler runs
   (handlers may not retain an envelope, see {!Msg}). A descriptor starts
   with [n] slots and grows only when duplicated copies need room.
   Descriptors are recycled through a free stack once the last sub-event has
   fired, so steady-state delivery allocates nothing beyond the peak number
   of concurrently in-flight broadcasts. *)
type 'a fanout = {
  fan_batch : Event_queue.batch;
  fan_msg : 'a Msg.t;
  mutable fan_dsts : int array;
}

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
  mutable pool : 'a fanout array;  (* free stack of recycled descriptors *)
  mutable pool_top : int;
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
  mutable delay_override : ('a Msg.t -> float option) option;
      (* adversary-chosen delivery delay for selected messages; the paper's
         model lets a faulty sender's messages be arbitrarily late (masked as
         part of the f faults) *)
  kind_of : ('a -> string) option;  (* classifier for per-kind statistics *)
  kind_counters : (string, Metrics.counter) Hashtbl.t;
  mutable last_kind : string;  (* 1-entry cache: kind_of returns literals *)
  mutable last_kind_counter : Metrics.counter;
  c_sent : Metrics.counter;
  c_delivered : Metrics.counter;
  c_dropped : Metrics.counter;
  c_duplicated : Metrics.counter;
  c_reordered : Metrics.counter;
  g_in_flight : Metrics.gauge;  (* scheduled, undelivered: moves by exactly 1.0 *)
}

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
    pool = [||];
    pool_top = 0;
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
    kind_counters = Hashtbl.create 16;
    (* A runtime-built string: never physically equal to a classifier kind. *)
    last_kind = String.concat "-" [ "no"; "kind" ];
    last_kind_counter = Metrics.counter metrics "net.sent";
    c_sent = Metrics.counter metrics "net.sent";
    c_delivered = Metrics.counter metrics "net.delivered";
    c_dropped = Metrics.counter metrics "net.dropped";
    c_duplicated = Metrics.counter metrics "net.duplicated";
    c_reordered = Metrics.counter metrics "net.reordered";
    g_in_flight = Metrics.gauge metrics "net.in_flight";
  }
  in
  t.pool_rng <- Rng.split rng;
  t

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

(* One hash lookup per kind *change*, not per send: classifiers return
   string literals, so consecutive sends of the same kind hit the physical-
   equality cache (a miss merely falls back to the table — correctness never
   depends on sharing). *)
let count_kind t kind =
  let c =
    if kind == t.last_kind then t.last_kind_counter
    else begin
      let c =
        match Hashtbl.find_opt t.kind_counters kind with
        | Some c -> c
        | None ->
            let c =
              Metrics.counter (Engine.metrics t.engine) ("net.sent." ^ kind)
            in
            Hashtbl.replace t.kind_counters kind c;
            c
      in
      t.last_kind <- kind;
      t.last_kind_counter <- c;
      c
    end
  in
  Metrics.incr c

let count_sent t payload =
  Metrics.incr t.c_sent;
  match t.kind_of with None -> () | Some f -> count_kind t (f payload)

let trace_msg t payload =
  (* Only rendered when a trace record is actually built (enabled traces). *)
  match kind_of_payload t payload with None -> "?" | Some k -> k

let count_dropped t ~src ~dst ~reason payload =
  Metrics.incr t.c_dropped;
  let tr = Engine.trace t.engine in
  if Trace.is_enabled tr then
    Engine.record t.engine ~node:(-1)
      (Trace.Drop { src; dst; msg = trace_msg t payload; reason })

let deliver t (m : 'a Msg.t) =
  Metrics.add t.g_in_flight (-1.0);
  match t.handlers.(m.Msg.dst) with
  | None ->
      (* A destination without a handler (a skipped slot) consumes the
         message: it must leave the in-flight set as a drop or the
         conservation invariant cannot be stated. *)
      count_dropped t ~src:m.Msg.src ~dst:m.Msg.dst ~reason:"no-handler"
        m.Msg.payload
  | Some h ->
      Metrics.incr t.c_delivered;
      let tr = Engine.trace t.engine in
      if Trace.is_enabled tr then
        Engine.record t.engine ~node:m.Msg.dst
          (Trace.Deliver
             { src = m.Msg.src; dst = m.Msg.dst; msg = trace_msg t m.Msg.payload });
      h m

(* ---- the fan-out pool (delivery arena) ---------------------------------- *)

let release_fanout t fo =
  let b = fo.fan_batch in
  b.Event_queue.b_count <- 0;
  b.Event_queue.b_next <- 0;
  if t.pool_top = Array.length t.pool then
    (* Doubled by [Array.append], not by [Array.make] with [fo] as filler:
       [fo] is usually young, and [Array.make] past 256 slots with a young
       filler forces a minor collection. Slots beyond [pool_top] are never
       read before a later release overwrites them. *)
    t.pool <-
      (if t.pool_top = 0 then Array.make 8 fo
       else Array.append t.pool t.pool);
  t.pool.(t.pool_top) <- fo;
  t.pool_top <- t.pool_top + 1;
  Metrics.add t.g_pool_in_use (-1.0)

(* Sub-event [j] of a batch pops: point the shared envelope at slot [j]'s
   destination, deliver it, and recycle the descriptor once the last
   sub-event has fired. Release happens after the handler returns, so the
   envelope stays valid for the duration of the call; re-entrant sends from
   inside the handler acquire other descriptors. *)
let fire_fanout t fo j =
  let b = fo.fan_batch in
  let m = fo.fan_msg in
  m.Msg.dst <- fo.fan_dsts.(j);
  deliver t m;
  if b.Event_queue.b_next >= b.Event_queue.b_count then release_fanout t fo

let new_fanout t msg =
  Metrics.incr t.c_pool_fanouts;
  Metrics.incr_by t.c_pool_slots t.n;
  let fo =
    {
      fan_batch = Event_queue.make_batch ~capacity:t.n ();
      fan_msg = msg;
      fan_dsts = Array.make t.n 0;
    }
  in
  fo.fan_batch.Event_queue.b_fire <- (fun j -> fire_fanout t fo j);
  fo

(* Take a descriptor off the free stack (or allocate one) and stamp its
   envelope with the fields every sub-event shares. *)
let acquire_fanout t ~src ~dst ~sent_at ~forged payload =
  Metrics.add t.g_pool_in_use 1.0;
  let fo =
    if t.pool_top > 0 then begin
      t.pool_top <- t.pool_top - 1;
      t.pool.(t.pool_top)
    end
    else new_fanout t (Msg.make ~src ~dst ~sent_at payload)
  in
  Msg.set fo.fan_msg ~src ~dst ~sent_at ~forged payload;
  fo

(* Arm slot [i] for [dst]: record its delivery time and reserve its
   tie-break seq — in the very order the per-entry scheme called
   [Engine.schedule], which is what keeps batched runs bit-identical to the
   old per-send scheme. A slot past the descriptor's capacity (only a
   duplicated copy can need one) grows the key arrays and the destination
   column in lockstep, counted in [net.pool.slots]. *)
let arm_slot t fo i ~dst ~at =
  let b = fo.fan_batch in
  let olen = Array.length fo.fan_dsts in
  if i >= olen then begin
    Event_queue.ensure_batch_capacity b (i + 1);
    let cap = Event_queue.batch_capacity b in
    Metrics.incr_by t.c_pool_slots (cap - olen);
    let dsts = Array.make cap 0 in
    Array.blit fo.fan_dsts 0 dsts 0 olen;
    fo.fan_dsts <- dsts
  end;
  fo.fan_dsts.(i) <- dst;
  b.Event_queue.b_ats.(i) <- at;
  b.Event_queue.b_seqs.(i) <- Engine.next_seq t.engine;
  Metrics.add t.g_in_flight 1.0

(* Sort the armed prefix by (at, seq) and hand the descriptor to the engine
   as ONE heap entry. Slots were armed in ascending seq order, so this is a
   stable insertion sort on the delivery times — counts are small (<= 2n)
   and the arrays are the descriptor's own, so nothing allocates. *)
let finish_fanout t fo count =
  if count = 0 then release_fanout t fo
  else begin
    let b = fo.fan_batch in
    let ats = b.Event_queue.b_ats
    and seqs = b.Event_queue.b_seqs
    and dsts = fo.fan_dsts in
    for i = 1 to count - 1 do
      let at = ats.(i) and seq = seqs.(i) and dst = dsts.(i) in
      let j = ref i in
      while
        !j > 0
        && (ats.(!j - 1) > at || (ats.(!j - 1) = at && seqs.(!j - 1) > seq))
      do
        ats.(!j) <- ats.(!j - 1);
        seqs.(!j) <- seqs.(!j - 1);
        dsts.(!j) <- dsts.(!j - 1);
        decr j
      done;
      ats.(!j) <- at;
      seqs.(!j) <- seq;
      dsts.(!j) <- dst
    done;
    b.Event_queue.b_count <- count;
    b.Event_queue.b_next <- 0;
    Engine.schedule_batch t.engine b
  end

(* ---- sending ------------------------------------------------------------ *)

(* Written so that NaN fails it: a NaN delay would arm a NaN time. *)
let check_delay d =
  if not (d >= 0.0) then
    invalid_arg
      (if d < 0.0 then "Engine.schedule_after: negative delay"
       else "Engine.schedule_after: NaN delay")

(* One send per destination in [first, last], batched into a single pooled
   fan-out descriptor. The per-destination draw schedule, fault gauntlet,
   counter updates and seq reservations replicate the per-entry scheme
   sample-for-sample: one sample per concern per send, from that concern's
   own stream, whether or not the fault is active — including the delay
   sample, which is drawn even for messages that end up muted, partitioned
   or lost. Toggling any one fault therefore never shifts the samples
   another concern (or a surviving message) observes. *)
let send_range t ~src ~first ~last payload =
  let tr = Engine.trace t.engine in
  let now = Engine.now t.engine in
  let fo = acquire_fanout t ~src ~dst:first ~sent_at:now ~forged:false payload in
  let m = fo.fan_msg in
  let count = ref 0 in
  for dst = first to last do
    count_sent t payload;
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
      m.Msg.dst <- dst;
      let extra =
        match t.reorder with
        | Some { prob; extra } when reorder_roll < prob && extra > 0.0 ->
            Metrics.incr t.c_reordered;
            reorder_frac *. extra
        | _ -> 0.0
      in
      let delay =
        match t.delay_override with
        | Some f -> ( match f m with Some delay -> delay | None -> drawn_delay)
        | None -> drawn_delay
      in
      let d = delay +. extra in
      check_delay d;
      arm_slot t fo !count ~dst ~at:(now +. d);
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
        arm_slot t fo !count ~dst ~at:(now +. d2);
        incr count
      end
    end
  done;
  finish_fanout t fo !count

let send t ~src ~dst payload =
  if dst < 0 || dst >= t.n then invalid_arg "Network.send: bad destination";
  send_range t ~src ~first:dst ~last:dst payload

let broadcast t ~src payload = send_range t ~src ~first:0 ~last:(t.n - 1) payload

(* Incoherent-period garbage: deliver a message claiming to come from
   [claimed_src] after [delay]. Used by the transient-fault injector only.
   Forged messages enter the accounting like any other send, so the
   conservation invariant keeps holding during scrambles. The forged path
   draws no fault samples: injection is itself adversary-scheduled. *)
let inject_forged t ~claimed_src ~dst ~delay payload =
  check_delay delay;
  count_sent t payload;
  let now = Engine.now t.engine in
  let fo =
    acquire_fanout t ~src:claimed_src ~dst ~sent_at:now ~forged:true payload
  in
  arm_slot t fo 0 ~dst ~at:(now +. delay);
  finish_fanout t fo 1

(* ---- arena scrambling (transient-fault injection) ----------------------- *)

(* Corrupt every FREE descriptor's envelope and destination column — the
   Session_table safety pattern: a transient fault may trash values, never
   the pool's capacity or occupancy. A free descriptor's envelope and slots
   are fully overwritten on acquire and arm, so this is semantically
   invisible to subsequent deliveries; the test suite pins both properties.
   Draws come from the arena's own stream, so scrambling never shifts a
   fault-concern sample. *)
let scramble_pool t ~payload =
  let rng = t.pool_rng in
  for k = 0 to t.pool_top - 1 do
    let fo = t.pool.(k) in
    Msg.set fo.fan_msg
      ~src:(Rng.int rng (max 1 t.n))
      ~dst:(Rng.int rng (max 1 t.n))
      ~sent_at:(Rng.float rng 1.0e9)
      ~forged:(Rng.bool rng) (payload rng);
    for i = 0 to Array.length fo.fan_dsts - 1 do
      fo.fan_dsts.(i) <- Rng.int rng (max 1 t.n)
    done
  done

let pool_slots_allocated t = Metrics.value t.c_pool_slots
let pool_free t = t.pool_top

let link t =
  {
    Link.n = t.n;
    send = (fun ~src ~dst payload -> send t ~src ~dst payload);
    broadcast = (fun ~src payload -> broadcast t ~src payload);
    set_handler = (fun node h -> set_handler t node h);
  }
