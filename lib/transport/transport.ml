(* Reliable transport over a persistently faulty link.

   The paper's channel model (§2, Def. 2) gives every message between correct
   nodes a delivery bound delta once the network is coherent. This layer
   recovers that abstraction on top of a link that stays lossy (and
   duplicating, and reordering) forever, in the style of the self-stabilizing
   reliable-broadcast constructions of Duvignau, Raynal & Schiller
   (arXiv:2201.12880): per-ordered-pair sequence numbers, ack-driven
   retransmission with exponential backoff and a retry cap, and a bounded
   receive-side dedup cache.

   Every piece of state is a fixed-size array — next-seq counters, in-flight
   window rings, dedup rings — so a state scramble (the incoherent-period
   fault model) corrupts values but never capacity, and the corruption washes
   out as real traffic overwrites the rings:

   - a corrupted next_seq just starts a fresh seq range; the receiver's dedup
     check is seq-exact, so unseen seqs flow through;
   - a corrupted dedup slot wrongly suppresses at most the one future frame
     whose seq lands on that value before traffic overwrites the slot — the
     same effect as one lost message during the incoherent period, which the
     protocol already masks;
   - a corrupted pending slot retransmits garbage seqs for at most
     [retries] backoff steps and then expires.

   Retransmission timers: every frame arms one engine timer per attempt,
   and an acked frame's timer still fires, as a no-op (the pending slot no
   longer holds its entry). A timer of attempt a always fires
   [retransmit_deadline cfg a] = rto * 2^a after it was armed, and the
   clock never runs backwards, so the timers of one backoff level arrive
   in ascending (at, seq) order: each level is a FIFO. Each level owns one
   engine lane ([Engine.append_after]), which keeps a single heap entry for
   the level's whole FIFO while every timer keeps the key it would have had
   as its own heap entry, so runs are unchanged event for event. Each
   timer carries its link [src * n + dst] as the lane's tag, and beside
   each lane a ring holds the entries its timers guard, in the same order:
   an arm pushes one, a fire pops the head, and ring and lane advance in
   lockstep. Every lane fires through one closure, which finds its level
   by the lane's id. The rings grow by [Array.append]: an [Array.make] past
   256 slots with a young entry as filler would force a minor collection.

   Delivery: a data frame's payload reaches its handler in the transport's
   one envelope, rewritten per frame, under the network's contract (read
   it during the call, never retain it).

   Accounting: all transport traffic (data, retransmissions, acks) goes
   through [Network.send], so the network's conservation identity
   [attempts = delivered + dropped + in_flight] keeps holding verbatim.
   The transport adds its own counters: [transport.retransmits],
   [transport.dup_suppressed], [transport.expired], [transport.evicted],
   [transport.acks]. *)

module Rng = Ssba_sim.Rng
module Engine = Ssba_sim.Engine
module Event_queue = Ssba_sim.Event_queue
module Trace = Ssba_sim.Trace
module Metrics = Ssba_sim.Metrics
module Msg = Ssba_net.Msg
module Link = Ssba_net.Link
module Network = Ssba_net.Network

type 'a frame = Data of { seq : int; payload : 'a } | Ack of { seq : int }

let kind_of payload_kind = function
  | Data { payload; _ } -> payload_kind payload
  | Ack _ -> "ack"

type config = {
  rto : float;  (* first retransmission timeout; doubles each attempt *)
  retries : int;  (* max retransmissions per frame before giving up *)
  window : int;  (* per-ordered-pair in-flight entries (ring capacity) *)
  dedup : int;  (* per-ordered-pair receive dedup ring capacity *)
}

let config ?(retries = 12) ?(window = 64) ?(dedup = 256) ~rto () =
  if not (rto > 0.0) then invalid_arg "Transport.config: rto must be positive";
  if retries < 0 then invalid_arg "Transport.config: retries must be >= 0";
  if not (Float.is_finite (ldexp rto retries)) then
    invalid_arg "Transport.config: the last backoff rto * 2^retries must be finite";
  if window <= 0 then invalid_arg "Transport.config: window must be positive";
  if dedup <= 0 then invalid_arg "Transport.config: dedup must be positive";
  { rto; retries; window; dedup }

type 'a entry = { seq : int; payload : 'a; mutable attempt : int }

(* One backoff level: its engine lane (whose tags are the timers' links,
   src * n + dst) and, beside it, the ring of the frames its pending timers
   guard, oldest at [head]. *)
type 'a level = {
  lane : Event_queue.batch;
  mutable frames : 'a entry array;
  mutable head : int;
  mutable len : int;
}

type 'a t = {
  engine : Engine.t;
  net : 'a frame Network.t;
  cfg : config;
  n : int;
  payload_kind : ('a -> string) option;  (* trace labels for Retransmit *)
  next_seq : int array array;  (* [src].[dst] *)
  pending : 'a entry option array array array;  (* [src].[dst].[seq mod window] *)
  seen : int array array array;  (* [dst].[src].[seq mod dedup]; -1 = empty *)
  handlers : ('a Msg.t -> unit) option array;  (* payload handlers, per node *)
  mutable env : 'a Msg.t option;
      (* the one envelope of every unwrapped frame, made with the first *)
  levels : 'a level array;  (* [attempt], for attempts 0 .. retries *)
  c_retransmits : Metrics.counter;
  c_dup_suppressed : Metrics.counter;
  c_expired : Metrics.counter;
  c_evicted : Metrics.counter;
  c_acks : Metrics.counter;
  c_retries_exhausted : Metrics.counter;
}

let payload_trace_msg t payload =
  match t.payload_kind with None -> "?" | Some f -> f payload

let retransmit_deadline cfg attempt =
  (* attempt = 0 is the original send; retransmission k fires at
     rto * 2^k past attempt k's send, i.e. backoff doubles per retry. *)
  cfg.rto *. ldexp 1.0 attempt

(* Double a full ring. Its [len = cap] entries, [head] on, sit contiguous
   and in order in [x ++ x], so [head] stays and the tail moves to
   [head + cap]. *)
let grow_ring lv e =
  lv.frames <-
    (if Array.length lv.frames = 0 then Array.make 8 e
     else Array.append lv.frames lv.frames)

(* Arm the retransmission timer of [e]'s current attempt on pair
   (src, dst): one more sub-event on the attempt's lane, tagged with the
   link, and one more entry in its ring. *)
let arm_timer t ~src ~dst (e : 'a entry) =
  let lv = t.levels.(e.attempt) in
  Engine.append_after t.engine lv.lane
    ~delay:(retransmit_deadline t.cfg e.attempt)
    ~tag:((src * t.n) + dst);
  if lv.len = Array.length lv.frames then grow_ring lv e;
  let cap = Array.length lv.frames in
  let k = lv.head + lv.len in
  let k = if k >= cap then k - cap else k in
  lv.frames.(k) <- e;
  lv.len <- lv.len + 1

(* A retransmission timer of [e] on pair (src, dst) fires. The slot is
   checked by physical equality: if the entry was acked, evicted, or
   replaced since the timer was armed, the timer is a no-op. *)
let on_timer t ~src ~dst (e : 'a entry) =
  let slot = (e.seq land max_int) mod t.cfg.window in
  match t.pending.(src).(dst).(slot) with
  | Some e' when e' == e ->
      if e.attempt >= t.cfg.retries then begin
        t.pending.(src).(dst).(slot) <- None;
        Metrics.incr t.c_expired;
        (* retry-cap exhaustion was previously silent: the frame's
           reliability is abandoned here, so say so. [c_expired] keeps
           its digest-visible meaning; this counter and the trace event
           are observability-only. *)
        Metrics.incr t.c_retries_exhausted;
        let tr = Engine.trace t.engine in
        if Trace.is_enabled tr then
          Engine.record t.engine ~node:src
            (Trace.Retries_exhausted
               {
                 src;
                 dst;
                 msg = payload_trace_msg t e.payload;
                 seq = e.seq;
               })
      end
      else begin
        e.attempt <- e.attempt + 1;
        Metrics.incr t.c_retransmits;
        let tr = Engine.trace t.engine in
        if Trace.is_enabled tr then
          Engine.record t.engine ~node:src
            (Trace.Retransmit
               {
                 src;
                 dst;
                 msg = payload_trace_msg t e.payload;
                 attempt = e.attempt;
               });
        Network.send t.net ~src ~dst (Data { seq = e.seq; payload = e.payload });
        arm_timer t ~src ~dst e
      end
  | _ -> ()

(* Sub-event [j] of level [lane.b_id]'s lane fired: read its link and pop
   the ring's head first, because the timer may re-arm into this very lane
   (a scramble can lower [attempt]), which can shift the lane's slots. *)
let fire t (lane : Event_queue.batch) j =
  let lv = t.levels.(lane.b_id) in
  let link = Event_queue.key_tag lane j in
  let k = lv.head in
  let e = lv.frames.(k) in
  lv.head <- (if k + 1 = Array.length lv.frames then 0 else k + 1);
  lv.len <- lv.len - 1;
  on_timer t ~src:(link / t.n) ~dst:(link mod t.n) e

let send t ~src ~dst payload =
  let seq = t.next_seq.(src).(dst) in
  t.next_seq.(src).(dst) <- seq + 1;
  let slot = (seq land max_int) mod t.cfg.window in
  (match t.pending.(src).(dst).(slot) with
  | Some _ ->
      (* window overrun: the ring slot is reclaimed and the old frame's
         reliability is abandoned (it may still be in flight) *)
      Metrics.incr t.c_evicted
  | None -> ());
  let e = { seq; payload; attempt = 0 } in
  t.pending.(src).(dst).(slot) <- Some e;
  Network.send t.net ~src ~dst (Data { seq; payload });
  arm_timer t ~src ~dst e

let broadcast t ~src payload =
  for dst = 0 to t.n - 1 do
    send t ~src ~dst payload
  done

(* The transport's envelope, written for one delivery. *)
let envelope t ~src ~dst payload =
  match t.env with
  | Some m ->
      Msg.set m ~src ~dst payload;
      m
  | None ->
      let m = Msg.make ~src ~dst payload in
      t.env <- Some m;
      m

(* Frame arrival at [node] (installed once per node on the underlying
   network). Acks clear the matching pending entry; data frames are acked
   unconditionally — even suppressed duplicates, because the duplicate means
   the previous ack was lost — then deduped and handed to the payload
   handler in the transport's envelope, with the frame's src and dst. The
   network's envelope [m] is read before the ack is sent. *)
let on_frame t node (m : 'a frame Msg.t) =
  let peer = m.Msg.src in
  match m.Msg.payload with
  | Ack { seq } ->
      let slot = (seq land max_int) mod t.cfg.window in
      (match t.pending.(node).(peer).(slot) with
      | Some e when e.seq = seq -> t.pending.(node).(peer).(slot) <- None
      | _ -> ())
  | Data { seq; payload } ->
      Metrics.incr t.c_acks;
      Network.send t.net ~src:node ~dst:peer (Ack { seq });
      let ring = t.seen.(node).(peer) in
      let slot = (seq land max_int) mod t.cfg.dedup in
      if ring.(slot) = seq then begin
        Metrics.incr t.c_dup_suppressed;
        let tr = Engine.trace t.engine in
        if Trace.is_enabled tr then
          Engine.record t.engine ~node
            (Trace.Dup_suppress { src = peer; dst = node; seq })
      end
      else begin
        ring.(slot) <- seq;
        match t.handlers.(node) with
        | Some h -> h (envelope t ~src:peer ~dst:node payload)
        | None -> ()
      end

let create ?kind_of:payload_kind ~engine ~net ~config:cfg () =
  let n = Network.size net in
  let metrics = Engine.metrics engine in
  let t =
    {
      engine;
      net;
      cfg;
      n;
      payload_kind;
      next_seq = Array.make_matrix n n 0;
      pending = Array.init n (fun _ -> Array.init n (fun _ -> Array.make cfg.window None));
      seen = Array.init n (fun _ -> Array.init n (fun _ -> Array.make cfg.dedup (-1)));
      handlers = Array.make n None;
      env = None;
      levels =
        Array.init (cfg.retries + 1) (fun attempt ->
            {
              lane = Event_queue.make_batch ~capacity:1 ~id:attempt ();
              frames = [||];
              head = 0;
              len = 0;
            });
      c_retransmits = Metrics.counter metrics "transport.retransmits";
      c_dup_suppressed = Metrics.counter metrics "transport.dup_suppressed";
      c_expired = Metrics.counter metrics "transport.expired";
      c_evicted = Metrics.counter metrics "transport.evicted";
      c_acks = Metrics.counter metrics "transport.acks";
      c_retries_exhausted = Metrics.counter metrics "transport.retries_exhausted";
    }
  in
  let fire_lane lane j = fire t lane j in
  Array.iter (fun lv -> lv.lane.Event_queue.b_fire <- fire_lane) t.levels;
  for node = 0 to n - 1 do
    Network.set_handler net node (fun m -> on_frame t node m)
  done;
  t

let link t =
  {
    Link.n = t.n;
    send = (fun ~src ~dst payload -> send t ~src ~dst payload);
    broadcast = (fun ~src payload -> broadcast t ~src payload);
    set_handler = (fun node h -> t.handlers.(node) <- Some h);
  }

(* Arbitrary-state corruption of the transport's own state (the transient
   fault model of Corollary 5): every counter, ring slot and pending entry
   may be overwritten with garbage *within its type* — capacities are part
   of the code, not the state, so they are not scrambled. Deterministic in
   [rng]. *)
let scramble t ~rng =
  let garbage_seq () = Rng.int rng 1_000_000 in
  for src = 0 to t.n - 1 do
    for dst = 0 to t.n - 1 do
      t.next_seq.(src).(dst) <- garbage_seq ();
      let ring = t.seen.(dst).(src) in
      for k = 0 to Array.length ring - 1 do
        if Rng.bool rng then ring.(k) <- garbage_seq ()
      done;
      let slots = t.pending.(src).(dst) in
      for k = 0 to Array.length slots - 1 do
        match slots.(k) with
        | None -> ()
        | Some e ->
            if Rng.bool rng then slots.(k) <- None
            else begin
              (* corrupt the retry budget; the seq is immutable in the entry,
                 but re-slotting it under a new timer chain is equivalent to a
                 corrupted in-flight record *)
              e.attempt <- Rng.int rng (t.cfg.retries + 1)
            end
      done
    done
  done
