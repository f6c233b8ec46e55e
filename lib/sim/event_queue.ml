(* Monomorphic event queue: the engine's innermost data structure.

   A binary min-heap over (at, seq) keys. The heap itself is three parallel
   scalar arrays indexed by heap position: a flat [float array] of times, an
   [int array] of sequence numbers and an [int array] of handles. What an
   entry runs lives in two side tables indexed by handle: a closure table for
   plain events and a batch table for fan-out descriptors. A sift moves a
   float, an int and an int; it never stores a pointer. An entry's closure or
   descriptor is written once when it is armed and once, back to [nop] or
   [null_batch], when it finally pops.

   Why pointers stay out of the sifts: OCaml's write barrier ([caml_modify])
   runs on every pointer store into a heap block. Storing a young closure
   into the (old) closure array adds a remembered-set entry, and while the
   major GC is marking, the overwritten value is darkened. A sift that moved
   closures and descriptors paid that barrier twice per level; the int and
   float stores below pay none.

   Handles: [hs] is a permutation of [0, capacity). Positions [0, n) hold
   the live entries' handles in heap order, positions [n, capacity) the free
   handles. Arming an entry takes the free handle at [hs.(n)]; removing the
   root parks its handle at the position the heap just vacated, so no free
   list is needed. Growth doubles the arrays and appends handles
   [cap .. 2cap-1]. A batch keeps its handle across re-keys. A free handle's
   table slots hold [nop] and [null_batch], so the queue never keeps a
   drained event's captures alive.

   Ordering is (at, seq) lexicographic, so events at equal times pop in
   scheduling order — the engine's determinism contract. Both sifts move a
   "hole" instead of swapping, storing each displaced slot once. No key is
   NaN: [set_key], the only writer of a batch's keys, rejects one, and
   [Engine.schedule] never passes one.

   Fan-out batches (broadcast deliveries): a [batch] is ONE heap entry
   carrying [b_count] sub-events whose (at, seq) keys are pre-sorted
   ascending. Each sub-event is one (at, seq, tag) triple of a single
   [float array]: the owner's tag (the network's destination, the
   transport's link) sits beside the key, so a delivery reads one slot of
   one array. The entry sits in the heap keyed at its next unfired sub-event;
   popping a non-final sub-event re-keys the root to the following sub-key
   and sifts it down in place — one sift instead of a pop + push — so the
   heap holds one entry per broadcast instead of one per receiver while the
   global pop order stays exactly what n separate entries would produce
   (each sub-event keeps the key the per-entry scheme would have given it,
   and keys are unique because seqs are).

   Lanes (the transport's retransmission timers): a lane is a batch that
   keeps accepting sub-events while it is armed. [append] writes one more
   key behind the lane's last and touches the heap only when the lane is
   idle (every sub-event fired): the lane then restarts at slot 0 and
   enters the heap as a new entry. While the lane is armed its heap entry
   stays keyed at its head, which an append never changes. So an owner
   whose keys arrive in ascending order — timers of one fixed delay armed
   by a clock that never runs backwards — keeps one heap entry for the
   whole FIFO, and the pop order is still exactly that of one entry per
   timer. A full lane first blits its fired prefix away and grows only
   when more than half of it is still pending.

   [sift_up], [sift_down], [remove_root], [push], [append] and the key
   accessors are [@inline], so a float key read from an array never
   crosses a call boundary inside this module and is never boxed: a
   push/pop cycle and a lane's append/pop cycle allocate nothing
   (test_event_queue.ml pins 0 minor words). [min_at] is [@inline] too, so
   that release builds hand the engine's loop the root key unboxed. *)

let nop () = ()

type batch = {
  mutable b_keys : float array;  (* (at, seq, tag) triples, sorted by (at, seq) *)
  mutable b_count : int;         (* sub-events armed in this cycle *)
  mutable b_next : int;          (* next sub-event to fire *)
  mutable b_fire : batch -> int -> unit;  (* receives itself and the index *)
  b_id : int;                    (* the owner's name for the descriptor *)
}

(* Slot [j]'s triple sits at [3j], [3j + 1], [3j + 2]. Seqs and tags are
   ints below 2^53, so a float holds each exactly; [set_key] is the only
   writer and checks that. *)
let stride = 3

let[@inline] key_at b j = b.b_keys.(stride * j)
let[@inline] key_seq b j = int_of_float b.b_keys.((stride * j) + 1)
let[@inline] key_tag b j = int_of_float b.b_keys.((stride * j) + 2)

(* [lsr] turns a negative int into one above 2^53, so one test covers both
   ends of [0, 2^53) for seq and tag. [at <> at] is NaN's test. *)
let[@inline] set_key b j ~at ~seq ~tag =
  if at <> at then invalid_arg "Event_queue.set_key: NaN time";
  if (seq lor tag) lsr 53 <> 0 then
    invalid_arg "Event_queue.set_key: seq or tag outside [0, 2^53)";
  let k = stride * j in
  let keys = b.b_keys in
  keys.(k) <- at;
  keys.(k + 1) <- float_of_int seq;
  keys.(k + 2) <- float_of_int tag

(* Move [len] triples from slot [src] to slot [dst] of the same key array
   or another one. *)
let[@inline] move_keys ~from ~src ~into ~dst ~len =
  Array.blit from (stride * src) into (stride * dst) (stride * len)

let null_batch =
  { b_keys = [||]; b_count = 0; b_next = 0; b_fire = (fun _ _ -> ()); b_id = -1 }

let make_batch ?(capacity = 8) ?(id = 0) () =
  let capacity = max capacity 1 in
  {
    b_keys = Array.make (stride * capacity) 0.0;
    b_count = 0;
    b_next = 0;
    b_fire = (fun _ _ -> ());
    b_id = id;
  }

let batch_capacity b = Array.length b.b_keys / stride

let ensure_batch_capacity b want =
  let cap = batch_capacity b in
  if want > cap then begin
    let keys = Array.make (stride * max want (2 * max cap 1)) 0.0 in
    move_keys ~from:b.b_keys ~src:0 ~into:keys ~dst:0 ~len:cap;
    b.b_keys <- keys
  end

(* (at, seq) of slot [i] strictly before that of slot [j]. Written so that
   a NaN time fails it. *)
let[@inline] key_before b i j =
  let ai = key_at b i and aj = key_at b j in
  ai < aj || (ai = aj && key_seq b i < key_seq b j)

(* A stable insertion sort of slots [0, count) of [keys] by (at, seq). It
   works on the raw triples: the keys came through [set_key], so seqs
   compare exactly as floats, and a triple moves as three float stores (a
   one-slot [Array.blit] would be a C call per inversion). The [float array]
   annotation matters: without it the accesses and compares are
   polymorphic and box. *)
let insertion_sort (keys : float array) count =
  for i = 1 to count - 1 do
    let k = stride * i in
    let at = Array.unsafe_get keys k
    and seq = Array.unsafe_get keys (k + 1)
    and tag = Array.unsafe_get keys (k + 2) in
    let j = ref k in
    while
      !j > 0
      &&
      let a = Array.unsafe_get keys (!j - stride) in
      a > at || (a = at && Array.unsafe_get keys (!j - stride + 1) > seq)
    do
      let p = !j - stride in
      Array.unsafe_set keys !j (Array.unsafe_get keys p);
      Array.unsafe_set keys (!j + 1) (Array.unsafe_get keys (p + 1));
      Array.unsafe_set keys (!j + 2) (Array.unsafe_get keys (p + 2));
      j := p
    done;
    Array.unsafe_set keys !j at;
    Array.unsafe_set keys (!j + 1) seq;
    Array.unsafe_set keys (!j + 2) tag
  done

type t = {
  mutable ats : float array;            (* position -> time key, unboxed *)
  mutable seqs : int array;             (* position -> seq *)
  mutable hs : int array;               (* position -> handle; see above *)
  mutable runs : (unit -> unit) array;  (* handle -> closure, [nop] if none *)
  mutable bats : batch array;           (* handle -> batch, [null_batch] if plain *)
  mutable n : int;                      (* heap entries *)
  mutable live : int;                   (* pending sub-events (>= n) *)
  mutable sort_keys : float array;      (* [sort_batch]'s scattered triples *)
  mutable sort_counts : int array;      (* [sort_batch]'s bucket offsets *)
}

let create ?(capacity = 64) () =
  let capacity = max capacity 1 in
  {
    ats = Array.make capacity 0.0;
    seqs = Array.make capacity 0;
    hs = Array.init capacity Fun.id;
    runs = Array.make capacity nop;
    bats = Array.make capacity null_batch;
    n = 0;
    live = 0;
    sort_keys = [||];
    sort_counts = [||];
  }

let size t = t.live
let entries t = t.n
let is_empty t = t.live = 0

(* Only called when full: [hs] then lists every handle in [0, cap) as live,
   so the new handles are exactly [cap .. 2cap-1]. *)
let grow t =
  let cap = Array.length t.ats in
  let cap' = 2 * cap in
  let ats = Array.make cap' 0.0 in
  let seqs = Array.make cap' 0 in
  let hs = Array.init cap' Fun.id in
  let runs = Array.make cap' nop in
  let bats = Array.make cap' null_batch in
  Array.blit t.ats 0 ats 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.hs 0 hs 0 cap;
  Array.blit t.runs 0 runs 0 cap;
  Array.blit t.bats 0 bats 0 cap;
  t.ats <- ats;
  t.seqs <- seqs;
  t.hs <- hs;
  t.runs <- runs;
  t.bats <- bats

(* Fan-outs of at most this many slots skip the bucket pass. *)
let small_batch = 16

(* The bucket of a time in [mn, mn + count / scale]: monotone in [at], so
   the buckets come out in time order. *)
let[@inline] bucket_of at ~mn ~scale ~count =
  let k = int_of_float ((at -. mn) *. scale) in
  if k >= count then count - 1 else k

(* Scatter slots [0, count) of [keys] stably into [count] buckets by time
   over [min, max], through the queue's scratch, and copy them back: each
   slot then sits in its bucket, in arming order, and the insertion sort
   after it moves a slot only past the slots of its own bucket. Skipped
   when every time is equal (the slots are then in seq order already) or
   the span cannot be scaled to [count] buckets. The least and greatest
   times are tracked by slot, not in float refs, so nothing boxes. *)
let bucket_pass t (keys : float array) count =
  let lo = ref 0 and hi = ref 0 in
  for i = 1 to count - 1 do
    let a = Array.unsafe_get keys (stride * i) in
    if a < Array.unsafe_get keys (stride * !lo) then lo := i
    else if a > Array.unsafe_get keys (stride * !hi) then hi := i
  done;
  let mn = Array.unsafe_get keys (stride * !lo) in
  let span = Array.unsafe_get keys (stride * !hi) -. mn in
  let scale = float_of_int count /. span in
  if span > 0.0 && span < infinity && scale < infinity then begin
    if Array.length t.sort_counts <= count then
      t.sort_counts <- Array.make (max (count + 1) (2 * Array.length t.sort_counts)) 0;
    if Array.length t.sort_keys < stride * count then
      t.sort_keys <- Array.make (max (stride * count) (2 * Array.length t.sort_keys)) 0.0;
    let starts = t.sort_counts and out = t.sort_keys in
    for k = 0 to count do
      Array.unsafe_set starts k 0
    done;
    for i = 0 to count - 1 do
      let k = bucket_of (Array.unsafe_get keys (stride * i)) ~mn ~scale ~count in
      Array.unsafe_set starts (k + 1) (Array.unsafe_get starts (k + 1) + 1)
    done;
    for k = 1 to count - 1 do
      Array.unsafe_set starts k (Array.unsafe_get starts k + Array.unsafe_get starts (k - 1))
    done;
    for i = 0 to count - 1 do
      let src = stride * i in
      let k = bucket_of (Array.unsafe_get keys src) ~mn ~scale ~count in
      let p = Array.unsafe_get starts k in
      Array.unsafe_set starts k (p + 1);
      let dst = stride * p in
      Array.unsafe_set out dst (Array.unsafe_get keys src);
      Array.unsafe_set out (dst + 1) (Array.unsafe_get keys (src + 1));
      Array.unsafe_set out (dst + 2) (Array.unsafe_get keys (src + 2))
    done;
    Array.blit out 0 keys 0 (stride * count)
  end

(* Expected O(count) for times spread over their span, as a fan-out's
   drawn delays are; a batch whose times bunch into few buckets costs what
   the insertion sort does. Keys are unique, so the result is the one
   order by (at, seq) however it is reached. *)
let sort_batch t b =
  let count = b.b_count in
  if count > batch_capacity b then
    invalid_arg "Event_queue.sort_batch: count exceeds the key array";
  if count > small_batch then bucket_pass t b.b_keys count;
  insertion_sort b.b_keys count

(* All unsafe accesses below are at positions < t.n <= Array.length t.ats
   or at handles taken from [hs]; the five arrays always have equal
   length. *)

(* Place (at, seq, h) into the hole at position [n] and sift it up. The
   caller has taken [h] from [hs.(n)]. *)
let[@inline] sift_up t ~at ~seq h =
  let ats = t.ats and seqs = t.seqs and hs = t.hs in
  let i = ref t.n in
  t.n <- t.n + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pat = Array.unsafe_get ats parent in
    if pat > at || (pat = at && Array.unsafe_get seqs parent > seq) then begin
      Array.unsafe_set ats !i pat;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set hs !i (Array.unsafe_get hs parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set ats !i at;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set hs !i h

(* The free handle that the next armed entry takes. *)
let[@inline] free_handle t =
  if t.n = Array.length t.ats then grow t;
  Array.unsafe_get t.hs t.n

let[@inline] push t ~at ~seq run =
  let h = free_handle t in
  Array.unsafe_set t.runs h run;
  sift_up t ~at ~seq h;
  t.live <- t.live + 1

let push_batch t b =
  if b.b_count < 1 then invalid_arg "Event_queue.push_batch: empty batch";
  if b.b_next <> 0 then invalid_arg "Event_queue.push_batch: batch in flight";
  if b.b_count > batch_capacity b then
    invalid_arg "Event_queue.push_batch: count exceeds the key array";
  let a0 = key_at b 0 in
  if a0 <> a0 then invalid_arg "Event_queue.push_batch: NaN time";
  for i = 0 to b.b_count - 2 do
    if not (key_before b i (i + 1)) then
      invalid_arg "Event_queue.push_batch: sub-events not sorted by (at, seq)"
  done;
  let h = free_handle t in
  Array.unsafe_set t.bats h b;
  sift_up t ~at:a0 ~seq:(key_seq b 0) h;
  t.live <- t.live + b.b_count

(* Make room for one more sub-event on a full lane: drop the fired prefix,
   then double the key arrays if more than half of them is still pending,
   so each key is moved O(1) times on average. Slot indices shift, which
   is why a lane's owner tracks its FIFO itself. *)
let compact_lane b =
  let fired = b.b_next in
  let pending = b.b_count - fired in
  if fired > 0 then begin
    move_keys ~from:b.b_keys ~src:fired ~into:b.b_keys ~dst:0 ~len:pending;
    b.b_next <- 0;
    b.b_count <- pending
  end;
  let cap = batch_capacity b in
  if 2 * pending > cap then ensure_batch_capacity b (cap + 1)

let[@inline] append t b ~at ~seq ~tag =
  let c = b.b_count in
  if b.b_next >= c then begin
    (* Idle: nothing of [b] is in the heap. Restart at slot 0 as a new
       entry; [set_key] rejects a NaN time before anything moves. *)
    set_key b 0 ~at ~seq ~tag;
    b.b_count <- 1;
    b.b_next <- 0;
    let h = free_handle t in
    Array.unsafe_set t.bats h b;
    sift_up t ~at ~seq h
  end
  else begin
    (* Armed: the heap entry is keyed at the head, which stays. Written so
       that a NaN key fails. *)
    let last = key_at b (c - 1) in
    if not (last < at || (last = at && key_seq b (c - 1) < seq)) then
      invalid_arg "Event_queue.append: key not after the lane's last key";
    if c = batch_capacity b then compact_lane b;
    let c = b.b_count in
    set_key b c ~at ~seq ~tag;
    b.b_count <- c + 1
  end;
  t.live <- t.live + 1

(* [@inline] so that the engine's loop reads the key unboxed: returned from
   a call, a float is boxed. *)
let[@inline] min_at t =
  if t.n = 0 then invalid_arg "Event_queue.min_at: empty";
  t.ats.(0)

(* Place (at, seq, h) into the hole at the root and sift it down within heap
   prefix [0, bound). *)
let[@inline] sift_down t ~bound ~at ~seq h =
  let ats = t.ats and seqs = t.seqs and hs = t.hs in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= bound then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < bound then begin
          let lat = Array.unsafe_get ats l and rat = Array.unsafe_get ats r in
          if
            rat < lat
            || (rat = lat && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
          then r
          else l
        end
        else l
      in
      let cat = Array.unsafe_get ats c in
      if cat < at || (cat = at && Array.unsafe_get seqs c < seq) then begin
        Array.unsafe_set ats !i cat;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
        Array.unsafe_set hs !i (Array.unsafe_get hs c);
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set ats !i at;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set hs !i h

(* Remove the root entry, whose handle is [h], outright (plain event, or
   batch on its last sub-event): the last entry sifts down through the root
   hole, and [h] is parked at the position the heap vacated. *)
let[@inline] remove_root t h =
  let last = t.n - 1 in
  t.n <- last;
  if last > 0 then
    sift_down t ~bound:last ~at:(Array.unsafe_get t.ats last)
      ~seq:(Array.unsafe_get t.seqs last) (Array.unsafe_get t.hs last);
  Array.unsafe_set t.hs last h

(* A plain root releases its closure and leaves the heap. A batch root with
   sub-events left is re-keyed to the following sub-key and sifted down in
   place (the new key is >= the old one, so it only moves toward the
   leaves); on its last sub-event it releases the descriptor and leaves. *)
let pop_invoke t =
  if t.n = 0 then invalid_arg "Event_queue.pop_invoke: empty";
  t.live <- t.live - 1;
  let h = Array.unsafe_get t.hs 0 in
  let b = Array.unsafe_get t.bats h in
  if b == null_batch then begin
    let run = Array.unsafe_get t.runs h in
    Array.unsafe_set t.runs h nop;
    remove_root t h;
    run ()
  end
  else begin
    let j = b.b_next in
    b.b_next <- j + 1;
    if j + 1 < b.b_count then
      sift_down t ~bound:t.n ~at:(key_at b (j + 1)) ~seq:(key_seq b (j + 1)) h
    else begin
      Array.unsafe_set t.bats h null_batch;
      remove_root t h
    end;
    b.b_fire b j
  end
