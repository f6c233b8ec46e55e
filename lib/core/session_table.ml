(* Fixed-capacity session table keyed by (General, tau_g anchor).

   The protocol core multiplexes agreement sessions over a flat slot array —
   the same bounded-memory discipline as the transport rings: capacity is
   fixed at creation, a transient fault may corrupt every *value* in the
   table but can never grow it, and overflow evicts deterministically
   (least-recently-active, creation order as tie-break) with a counter
   instead of allocating.

   Keys. A session starts as (G, None) — created by the first message for G
   — and is re-keyed in place to (G, Some tau_g) when the Initiator-Accept
   anchor is established. At most one session per General is live at a time
   (the protocol serializes executions per General; concurrency comes from
   many Generals via the channels extension), so a side index general->slot
   keeps lookup O(1). General ids are small dense ints ([0, n * channels)),
   so the index is a plain int array indexed by id: -1 marks an absent
   General, and an id outside the array is absent too. It starts at the
   table's capacity and grows (by doubling, never shrinking) only when a
   larger id is inserted. The anchor component is what monitors and the run
   report key on.

   Lifecycle. Dead sessions are garbage-collected by a caller-supplied
   quiescence predicate — a session whose state has fully decayed back to
   the freshly-created one is dropped and recreated on demand, which is
   behaviorally invisible (stale epoch-guarded timers no-op) but keeps the
   table's live count proportional to actual concurrency, not to the total
   number of Generals ever heard from. *)

type stats = {
  capacity : int;
  live : int;
  peak_live : int;  (* high-water mark of [live] *)
  evicted : int;  (* sessions dropped to make room *)
  gced : int;  (* quiescent sessions collected *)
  rejected_at_capacity : int;  (* non-evicting inserts refused when full *)
}

type 'a slot = {
  mutable sl_g : Types.general;
  mutable sl_anchor : float option;
  mutable sl_payload : 'a option;  (* None = free slot *)
  mutable sl_stamp : int;  (* creation sequence, eviction tie-break *)
}

type 'a t = {
  slots : 'a slot array;
  actives : float array;
      (* slot -> last activity, local time: a flat column, so a touch on
         the arrival path stores a raw float instead of boxing one *)
  mutable index : int array;  (* General id -> slot, -1 = absent *)
  mutable top : int;
      (* one past the highest occupied slot: [free_slot] fills from slot 0,
         so the walk stops here instead of at the capacity *)
  mutable seq : int;
  mutable live : int;
  mutable peak_live : int;
  mutable evicted : int;
  mutable gced : int;
  mutable rejected_at_capacity : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Session_table.create: capacity must be >= 1";
  {
    slots =
      Array.init capacity (fun _ ->
          { sl_g = -1; sl_anchor = None; sl_payload = None; sl_stamp = 0 });
    actives = Array.make capacity 0.0;
    index = Array.make capacity (-1);
    top = 0;
    seq = 0;
    live = 0;
    peak_live = 0;
    evicted = 0;
    gced = 0;
    rejected_at_capacity = 0;
  }

let capacity t = Array.length t.slots
let live t = t.live

let stats t =
  {
    capacity = Array.length t.slots;
    live = t.live;
    peak_live = t.peak_live;
    evicted = t.evicted;
    gced = t.gced;
    rejected_at_capacity = t.rejected_at_capacity;
  }

(* The slot holding [g]'s session, or -1. *)
let slot_of t g = if g >= 0 && g < Array.length t.index then t.index.(g) else -1

let unindex t g = if g >= 0 && g < Array.length t.index then t.index.(g) <- -1

let reindex t g i =
  let len = Array.length t.index in
  if g >= len then begin
    let grown = Array.make (max (g + 1) (2 * len)) (-1) in
    Array.blit t.index 0 grown 0 len;
    t.index <- grown
  end;
  t.index.(g) <- i

let find t g =
  match slot_of t g with -1 -> None | i -> t.slots.(i).sl_payload

let anchor t g =
  match slot_of t g with -1 -> None | i -> t.slots.(i).sl_anchor

let[@inline] is_free sl = match sl.sl_payload with None -> true | Some _ -> false

let free_slot t =
  let rec scan i = if is_free t.slots.(i) then i else scan (i + 1) in
  scan 0

(* Empty slot [i]. When it was the highest occupied slot, [top] drops past
   the free slots below it. An insert takes the lowest free slot, so it
   raises [top] by at most one, and the drops are amortised O(1). *)
let vacate t i =
  t.slots.(i).sl_payload <- None;
  if i = t.top - 1 then begin
    let top = ref i in
    while !top > 0 && is_free t.slots.(!top - 1) do
      decr top
    done;
    t.top <- !top
  end

(* Deterministic eviction: the occupied slot with the smallest last-activity
   time, creation order breaking ties. *)
let evict t =
  let best = ref (-1) in
  let act = t.actives in
  Array.iteri
    (fun i sl ->
      if sl.sl_payload <> None then
        match !best with
        | -1 -> best := i
        | b ->
            if
              act.(i) < act.(b)
              || (act.(i) = act.(b) && sl.sl_stamp < t.slots.(b).sl_stamp)
            then best := i)
    t.slots;
  let i = !best in
  let victim = t.slots.(i).sl_g in
  unindex t victim;
  vacate t i;
  t.live <- t.live - 1;
  t.evicted <- t.evicted + 1;
  (i, victim)

let check_id g =
  if g < 0 then invalid_arg "Session_table.insert: negative General id"

let insert_reporting t ~g ~now payload =
  check_id g;
  (match slot_of t g with
  | -1 -> ()
  | i ->
      (* replacing the session for g in place *)
      vacate t i;
      unindex t g;
      t.live <- t.live - 1);
  let i, victim =
    if t.live >= Array.length t.slots then
      let i, v = evict t in
      (i, Some v)
    else (free_slot t, None)
  in
  let sl = t.slots.(i) in
  t.seq <- t.seq + 1;
  sl.sl_g <- g;
  sl.sl_anchor <- None;
  sl.sl_payload <- Some payload;
  t.actives.(i) <- now;
  sl.sl_stamp <- t.seq;
  if i >= t.top then t.top <- i + 1;
  reindex t g i;
  t.live <- t.live + 1;
  if t.live > t.peak_live then t.peak_live <- t.live;
  victim

let insert t ~g ~now payload = ignore (insert_reporting t ~g ~now payload)

(* Admission-controlled insertion: like [insert], but refuses instead of
   evicting when the table is full and [g] holds no slot to replace. The
   refusal is counted separately from eviction so overload reports can tell
   "we turned work away" apart from "we dropped someone else's state". *)
let try_insert t ~g ~now payload =
  check_id g;
  if slot_of t g >= 0 then begin
    insert t ~g ~now payload;
    true
  end
  else if t.live >= Array.length t.slots then begin
    t.rejected_at_capacity <- t.rejected_at_capacity + 1;
    false
  end
  else begin
    insert t ~g ~now payload;
    true
  end

let touch t g ~now =
  match slot_of t g with
  | -1 -> ()
  | i -> if now > t.actives.(i) then t.actives.(i) <- now

let set_anchor t g anchor =
  match slot_of t g with -1 -> () | i -> t.slots.(i).sl_anchor <- Some anchor

let remove t g =
  match slot_of t g with
  | -1 -> ()
  | i ->
      vacate t i;
      unindex t g;
      t.live <- t.live - 1

(* Every session with the lifecycle bookkeeping (last activity, creation
   stamp) that determines eviction order — the model checker's fingerprints
   must cover it, since two tables with the same sessions but different
   activity orders evict differently under pressure. *)
let iter_detail t f =
  Array.iteri
    (fun i sl ->
      match sl.sl_payload with
      | None -> ()
      | Some p ->
          f ~g:sl.sl_g ~anchor:sl.sl_anchor ~active:t.actives.(i)
            ~stamp:sl.sl_stamp p)
    t.slots

(* The per-tick walk, in two phases: [f] on every live session, then
   collection. Each phase is a plain loop that reads a slot when it reaches
   it and calls back only for an occupied one. [f] may re-enter the table —
   a session's cleanup can run return hooks that propose, which inserts,
   evicts and touches sessions — so a session inserted into a slot ahead of
   the loop is visited, one inserted behind it is not, and collection judges
   the table [f] left behind. The phases cannot fuse: a slot freed by
   collection could then be refilled by a later [f] in the same walk.

   Both loops stop at [top], re-read at every step. When a loop stops,
   every slot from there on is free, and nothing can fill one before the
   phase ends (only [f] inserts), so a loop over all [capacity] slots would
   call back for exactly the same sessions. *)
let sweep t ~f ~dead =
  let slots = t.slots in
  let i = ref 0 in
  while !i < t.top do
    let sl = slots.(!i) in
    (match sl.sl_payload with None -> () | Some p -> f ~g:sl.sl_g p);
    incr i
  done;
  let i = ref 0 in
  while !i < t.top do
    let sl = slots.(!i) in
    (match sl.sl_payload with
    | Some p when dead ~active:t.actives.(!i) p ->
        unindex t sl.sl_g;
        vacate t !i;
        t.live <- t.live - 1;
        t.gced <- t.gced + 1
    | Some _ | None -> ());
    incr i
  done

(* Transient-fault injection: corrupt anchors, activity times and (via the
   callback) the session payloads — but occupancy, the index and above all
   the capacity are structural and survive any scramble, exactly like the
   transport rings. *)
let scramble rng ~rtime ~corrupt t =
  Array.iteri
    (fun i sl ->
      match sl.sl_payload with
      | None -> ()
      | Some p ->
          if Ssba_sim.Rng.bool rng then
            sl.sl_anchor <- (if Ssba_sim.Rng.bool rng then Some (rtime ()) else None);
          if Ssba_sim.Rng.bool rng then t.actives.(i) <- rtime ();
          corrupt p)
    t.slots
