(* Tests for the engine's monomorphic event queue.

   The queue is the engine's determinism keystone: events pop in ascending
   (at, seq) order, so two events at the same virtual time run in schedule
   (FIFO) order. The model test drives a random push/pop sequence against a
   sorted-list reference and checks both the pop order and the closures'
   execution order. The release and allocation tests pin what the handle
   tables buy: a popped entry is no longer reachable from the queue, and a
   push/pop cycle allocates nothing. The lane tests pin [append]'s order
   check, its compaction and its allocation; test_differential.ml holds
   lanes to the per-entry reference. *)

open Helpers
module Q = Ssba_sim.Event_queue

let test_empty () =
  let q = Q.create () in
  check_bool "is_empty" true (Q.is_empty q);
  check_int "size" 0 (Q.size q);
  (match Q.min_at q with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "min_at on empty must raise");
  match Q.pop_invoke q with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "pop_invoke on empty must raise"

let drain q =
  let acc = ref [] in
  while not (Q.is_empty q) do
    let at = Q.min_at q in
    Q.pop_invoke q;
    acc := at :: !acc
  done;
  List.rev !acc

let test_pop_ascending () =
  let q = Q.create () in
  List.iteri
    (fun seq at -> Q.push q ~at ~seq (fun () -> ()))
    [ 3.0; 1.0; 2.0; 0.5; 1.0 ];
  check_bool "ascending at" true (drain q = [ 0.5; 1.0; 1.0; 2.0; 3.0 ])

let test_fifo_for_equal_at () =
  let q = Q.create () in
  let order = ref [] in
  for seq = 0 to 9 do
    Q.push q ~at:1.0 ~seq (fun () -> order := seq :: !order)
  done;
  ignore (drain q);
  check_bool "equal-at events run in push (seq) order" true
    (List.rev !order = List.init 10 Fun.id)

let test_growth () =
  let q = Q.create ~capacity:1 () in
  for seq = 1000 downto 1 do
    Q.push q ~at:(float_of_int seq) ~seq (fun () -> ())
  done;
  check_int "size after growth" 1000 (Q.size q);
  check_float "min correct" 1.0 (Q.min_at q)

(* A descriptor armed with [ats], seqs [0, 1, ...] and the same tags. *)
let batch_of ats fire =
  let b = Q.make_batch ~capacity:(Array.length ats) () in
  Array.iteri (fun i at -> Q.set_key b i ~at ~seq:i ~tag:i) ats;
  b.Q.b_count <- Array.length ats;
  b.Q.b_fire <- fire;
  b

(* A NaN key is neither before, equal to nor after its neighbour, so the old
   "not sorted" test ([a0 > a1 || ...]) let it through. *)
let test_nan_batch_rejected () =
  let q = Q.create () in
  List.iter
    (fun ats ->
      match Q.push_batch q (batch_of ats (fun _ _ -> ())) with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "a NaN sub-event time must be rejected")
    [ [| Float.nan |]; [| Float.nan; 1.0 |]; [| 1.0; Float.nan |];
      [| 1.0; Float.nan; 2.0 |] ];
  check_bool "nothing armed" true (Q.is_empty q)

(* --- lanes --- *)

let rejects what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail (what ^ " must be rejected")

let test_lane_append_rejected () =
  let q = Q.create () in
  let lane = Q.make_batch ~capacity:1 () in
  rejects "a NaN time on an idle lane" (fun () ->
      Q.append q lane ~at:Float.nan ~seq:0 ~tag:0);
  check_bool "nothing armed" true (Q.is_empty q);
  Q.append q lane ~at:1.0 ~seq:5 ~tag:0;
  rejects "an earlier time" (fun () -> Q.append q lane ~at:0.5 ~seq:6 ~tag:0);
  rejects "the last key again" (fun () ->
      Q.append q lane ~at:1.0 ~seq:5 ~tag:0);
  rejects "an equal time with an earlier seq" (fun () ->
      Q.append q lane ~at:1.0 ~seq:4 ~tag:0);
  rejects "a NaN time on an armed lane" (fun () ->
      Q.append q lane ~at:Float.nan ~seq:6 ~tag:0);
  check_int "one sub-event armed" 1 (Q.size q);
  Q.append q lane ~at:1.0 ~seq:6 ~tag:0;
  Q.append q lane ~at:2.0 ~seq:7 ~tag:0;
  check_int "three sub-events" 3 (Q.size q);
  check_int "one heap entry" 1 (Q.entries q)

(* Seq and tag ride in a float array, exact below 2^53: the one writer
   refuses a seq or tag outside [0, 2^53) and a NaN time, before it writes
   anything, and lane appends go through it. *)
let test_key_writer_bounds () =
  let b = Q.make_batch ~capacity:2 () in
  Q.set_key b 0 ~at:1.0 ~seq:0 ~tag:0;
  let top = (1 lsl 53) - 1 in
  Q.set_key b 1 ~at:2.0 ~seq:top ~tag:top;
  check_int "the largest seq is exact" top (Q.key_seq b 1);
  check_int "the largest tag is exact" top (Q.key_tag b 1);
  List.iter
    (fun (what, at, seq, tag) ->
      rejects what (fun () -> Q.set_key b 0 ~at ~seq ~tag))
    [
      ("a NaN time", Float.nan, 1, 1);
      ("a negative seq", 1.5, -1, 1);
      ("a seq of 2^53", 1.5, 1 lsl 53, 1);
      ("the least seq", 1.5, min_int, 1);
      ("a negative tag", 1.5, 1, -1);
      ("a tag of 2^53", 1.5, 1, 1 lsl 53);
      ("the largest tag", 1.5, 1, max_int);
    ];
  check_float "a refused write left the time" 1.0 (Q.key_at b 0);
  check_int "and the seq" 0 (Q.key_seq b 0);
  check_int "and the tag" 0 (Q.key_tag b 0);
  let q = Q.create () in
  let lane = Q.make_batch ~capacity:1 () in
  rejects "an idle lane's append with a tag of 2^53" (fun () ->
      Q.append q lane ~at:1.0 ~seq:0 ~tag:(1 lsl 53));
  check_bool "nothing armed" true (Q.is_empty q);
  Q.append q lane ~at:1.0 ~seq:0 ~tag:0;
  rejects "an armed lane's append with a negative seq" (fun () ->
      Q.append q lane ~at:2.0 ~seq:(-1) ~tag:0);
  check_int "one sub-event armed" 1 (Q.size q)

(* A capacity-4 lane that keeps two to four timers pending: every full
   append compacts the fired prefix away instead of growing. Plain entries
   at the lane's times interleave by seq. *)
let test_lane_compaction () =
  let q = Q.create () in
  let lane = Q.make_batch ~capacity:4 () in
  let fifo = Queue.create () in
  let popped = ref [] in
  let log at s = popped := (at, s) :: !popped in
  lane.Q.b_fire <-
    (fun b j ->
      let at, s = Queue.pop fifo in
      check_int "the fired slot holds the FIFO's head" s (Q.key_seq b j);
      check_int "its tag moved with it" (s + 1) (Q.key_tag b j);
      log at s);
  let seq = ref 0 in
  let next () = let s = !seq in incr seq; s in
  let append at =
    let s = next () in
    Q.append q lane ~at ~seq:s ~tag:(s + 1);
    Queue.push (at, s) fifo
  in
  append 0.0;
  append 0.0;
  for round = 1 to 50 do
    let at = float_of_int round in
    append at;
    let s = next () in
    Q.push q ~at ~seq:s (fun () -> log at s);
    append at;
    for _ = 1 to 3 do Q.pop_invoke q done
  done;
  while not (Q.is_empty q) do Q.pop_invoke q done;
  let popped = List.rev !popped in
  check_int "every event fired once" !seq (List.length popped);
  check_bool "in (at, seq) order" true (List.sort compare popped = popped);
  check_int "compaction kept the lane at its capacity" 4
    (Q.batch_capacity lane)

(* --- release: the queue forgets what has popped --- *)

(* Kept out of line so that no register or stack slot of the caller holds
   the closure or the descriptor: only the queue and the weak array do. *)
let[@inline never] arm_plain q ~at ~seq fired =
  let run () = incr fired in
  let w = Weak.create 1 in
  Weak.set w 0 (Some run);
  Q.push q ~at ~seq run;
  w

let[@inline never] arm_batch q ats fired =
  let b = batch_of ats (fun _ _ -> incr fired) in
  let w = Weak.create 1 in
  Weak.set w 0 (Some b);
  Q.push_batch q b;
  w

let reachable w =
  Gc.full_major ();
  Weak.check w 0

let test_release () =
  let q = Q.create ~capacity:1 () in
  let fired = ref 0 in
  let plain = arm_plain q ~at:1.0 ~seq:10 fired in
  let batch = arm_batch q [| 0.5; 2.0 |] fired in
  let later = arm_plain q ~at:3.0 ~seq:11 fired in
  check_bool "armed closure held" true (reachable plain);
  check_bool "armed descriptor held" true (reachable batch);
  Q.pop_invoke q;
  (* batch sub-event 0 at 0.5: the descriptor has one left *)
  check_bool "descriptor held between sub-events" true (reachable batch);
  Q.pop_invoke q;
  (* plain at 1.0 *)
  check_bool "popped closure released" false (reachable plain);
  Q.pop_invoke q;
  (* batch sub-event 1 at 2.0 *)
  check_bool "drained descriptor released" false (reachable batch);
  check_bool "pending closure still held" true (reachable later);
  Q.pop_invoke q;
  check_bool "last closure released" false (reachable later);
  check_int "every sub-event fired" 4 !fired

(* --- allocation: sifts never box a key --- *)

(* Four pushes at literal keys (a literal float is a static block, so
   passing one boxes nothing even across the -opaque call boundary of the
   dev profile), one three-sub-event batch interleaved with them, and the
   seven pops. *)
let cycle q runs b =
  Q.push q ~at:3.0 ~seq:10 runs.(0);
  Q.push q ~at:1.0 ~seq:11 runs.(1);
  Q.push q ~at:2.0 ~seq:12 runs.(2);
  Q.push q ~at:1.0 ~seq:13 runs.(3);
  b.Q.b_next <- 0;
  Q.push_batch q b;
  while not (Q.is_empty q) do
    Q.pop_invoke q
  done

let test_no_allocation () =
  let q = Q.create ~capacity:1 () in
  let fired = ref 0 in
  let runs = Array.init 4 (fun _ () -> incr fired) in
  let b = batch_of [| 0.5; 1.5; 2.5 |] (fun _ _ -> incr fired) in
  cycle q runs b;
  (* warmed: the arrays have grown to their final size *)
  let w0 = Gc.minor_words () in
  cycle q runs b;
  cycle q runs b;
  let words = Gc.minor_words () -. w0 in
  check_int "every event fired" 21 !fired;
  check_float "minor words for two warmed cycles" 0.0 words

(* A lane that re-arms from idle, interleaved with one plain entry: two
   appends at literal keys fill the capacity-2 lane, a pop fires its head,
   a third append compacts it in place, and the drain leaves it idle. *)
let lane_cycle q lane run =
  Q.append q lane ~at:1.0 ~seq:20 ~tag:1;
  Q.push q ~at:1.5 ~seq:21 run;
  Q.append q lane ~at:2.0 ~seq:22 ~tag:2;
  Q.pop_invoke q;
  Q.append q lane ~at:3.0 ~seq:23 ~tag:3;
  while not (Q.is_empty q) do
    Q.pop_invoke q
  done

let test_lane_no_allocation () =
  let q = Q.create ~capacity:1 () in
  let fired = ref 0 in
  let run () = incr fired in
  let lane = Q.make_batch ~capacity:2 () in
  lane.Q.b_fire <- (fun _ _ -> incr fired);
  lane_cycle q lane run;
  let w0 = Gc.minor_words () in
  lane_cycle q lane run;
  lane_cycle q lane run;
  let words = Gc.minor_words () -. w0 in
  check_int "every event fired" 12 !fired;
  check_int "the lane never grew" 2 (Q.batch_capacity lane);
  check_float "minor words for two warmed cycles" 0.0 words

(* --- sort_batch: the network's fan-out sort --- *)

(* Slots armed in ascending seq order at random times on a coarse grid (so
   equal times are common) come out sorted by (at, seq), each tag still
   beside its key, as [List.sort] orders the same triples. *)
let prop_sort_batch =
  QCheck.Test.make ~name:"sort_batch orders by (at, seq), tags riding along"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 1 40) (int_bound 6))
    (fun grid ->
      let triples =
        List.mapi (fun i g -> (float_of_int g /. 2.0, 10 + i, 100 + (7 * i))) grid
      in
      let b = Q.make_batch ~capacity:(List.length triples) () in
      List.iteri (fun i (at, seq, tag) -> Q.set_key b i ~at ~seq ~tag) triples;
      b.Q.b_count <- List.length triples;
      Q.sort_batch (Q.create ()) b;
      let got =
        List.init b.Q.b_count (fun i -> (Q.key_at b i, Q.key_seq b i, Q.key_tag b i))
      in
      got = List.sort compare triples)

(* Batches past the insertion-sort cutoff go through the bucket pass. Each
   shape arms [count] slots in slot order with ascending seqs, as the
   network reserves them: times spread over a span, all equal, two distinct
   times, strictly descending, spread with one far outlier, and a
   descriptor made for [n] slots and grown past it by duplicated copies
   (each copy armed right after its original, a little later). One queue
   sorts every case, so its scratch is reused across sizes. *)
type shape = Spread | All_equal | Two_times | Reversed | Outlier | Grown

let shape_name = function
  | Spread -> "spread"
  | All_equal -> "all equal"
  | Two_times -> "two times"
  | Reversed -> "reversed"
  | Outlier -> "outlier"
  | Grown -> "grown by duplicates"

let gen_sort_case =
  QCheck.Gen.(
    oneofl [ Spread; All_equal; Two_times; Reversed; Outlier; Grown ] >>= fun shape ->
    int_range 1 256 >>= fun count ->
    list_repeat count (float_bound_exclusive 1.0) >>= fun us ->
    list_repeat count (int_bound 1000) >>= fun tags ->
    int_bound 1_000_000 >>= fun seq0 ->
    return (shape, count, us, tags, seq0))

let sort_case_times (shape, count, us, _, _) =
  let us = Array.of_list us in
  match shape with
  | Spread -> Array.map (fun u -> 5.0 +. (0.05 *. u)) us
  | All_equal -> Array.make count 3.25
  | Two_times -> Array.map (fun u -> if u < 0.5 then 1.0 else 2.0) us
  | Reversed -> Array.init count (fun i -> 100.0 -. (0.001 *. float_of_int i))
  | Outlier ->
      let a = Array.map (fun u -> 5.0 +. (0.05 *. u)) us in
      a.(int_of_float (us.(0) *. float_of_int count)) <- 1.0e6;
      a
  | Grown ->
      (* slot i is an original when us.(i) < 0.6, else a copy of the slot
         before it *)
      let a = Array.make count 0.0 in
      Array.iteri
        (fun i u ->
          a.(i) <-
            (if i = 0 || u < 0.6 then 5.0 +. (0.05 *. u)
             else a.(i - 1) +. (0.01 *. u)))
        us;
      a

let prop_sort_matches_list_sort =
  let q = Q.create () in
  QCheck.Test.make ~name:"sort_batch matches List.sort by (at, seq), 1..256 slots"
    ~count:600
    (QCheck.make
       ~print:(fun ((shape, count, _, _, seq0) as c) ->
         Printf.sprintf "%s, %d slots from seq %d: [%s]" (shape_name shape) count
           seq0
           (String.concat "; "
              (Array.to_list (Array.map string_of_float (sort_case_times c)))))
       gen_sort_case)
    (fun ((shape, count, _, tags, seq0) as c) ->
      let times = sort_case_times c in
      let triples = List.mapi (fun i tag -> (times.(i), seq0 + i, tag)) tags in
      let b =
        match shape with
        | Grown -> Q.make_batch ~capacity:((count / 2) + 1) ()
        | _ -> Q.make_batch ~capacity:count ()
      in
      List.iteri
        (fun i (at, seq, tag) ->
          Q.ensure_batch_capacity b (i + 1);
          Q.set_key b i ~at ~seq ~tag)
        triples;
      b.Q.b_count <- count;
      Q.sort_batch q b;
      let by_key (a1, s1, _) (a2, s2, _) =
        if a1 < a2 then -1 else if a1 > a2 then 1 else Int.compare s1 s2
      in
      List.init count (fun i -> (Q.key_at b i, Q.key_seq b i, Q.key_tag b i))
      = List.sort by_key triples)

(* Sorting a warm batch, one the queue's scratch has already held, and a
   small one allocates nothing. *)
let test_sort_no_allocation () =
  let q = Q.create () in
  let big = Q.make_batch ~capacity:200 () and small = Q.make_batch ~capacity:12 () in
  let fill b count =
    for i = 0 to count - 1 do
      Q.set_key b i ~at:(float_of_int ((i * 7919) mod 211) /. 8.0) ~seq:i ~tag:i
    done;
    b.Q.b_count <- count
  in
  fill big 200;
  Q.sort_batch q big;
  fill big 200;
  fill small 12;
  let w0 = Gc.minor_words () in
  Q.sort_batch q big;
  Q.sort_batch q small;
  let words = Gc.minor_words () -. w0 in
  let sorted b =
    let ok = ref true in
    for i = 1 to b.Q.b_count - 1 do
      let a = Q.key_at b (i - 1) and a' = Q.key_at b i in
      if a > a' || (a = a' && Q.key_seq b (i - 1) > Q.key_seq b i) then ok := false
    done;
    !ok
  in
  check_bool "both sorted" true (sorted big && sorted small);
  check_float "minor words for two warm sorts" 0.0 words

(* --- model test: random ops vs a sorted-list reference --- *)

type op = Push of float | Pop

let gen_ops =
  QCheck.Gen.(
    list
      (frequency
         [
           (* a small grid of times forces plenty of equal-at ties *)
           (5, map (fun i -> Push (float_of_int i /. 4.0)) (int_bound 8));
           (3, return Pop);
         ]))

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Push at -> Printf.sprintf "push %.2f" at
         | Pop -> "pop")
       ops)

let arb_ops = QCheck.make ~print:print_ops gen_ops

(* (at, seq) lexicographic, the queue's documented order. *)
let cmp (a1, s1) (a2, s2) =
  if a1 < a2 then -1 else if a1 > a2 then 1 else Stdlib.Int.compare s1 s2

let prop_model =
  QCheck.Test.make ~name:"event queue matches sorted-list model" ~count:500
    arb_ops (fun ops ->
      let q = Q.create ~capacity:1 () in
      let seq = ref 0 in
      let model = ref [] in
      (* sorted by cmp *)
      let ran = ref [] in
      let expect = ref [] in
      let step op =
        match op with
        | Push at ->
            let s = !seq in
            incr seq;
            Q.push q ~at ~seq:s (fun () -> ran := s :: !ran);
            model := List.merge cmp [ (at, s) ] !model;
            true
        | Pop -> (
            match !model with
            | [] -> Q.is_empty q
            | (at, s) :: rest ->
                model := rest;
                expect := s :: !expect;
                Q.min_at q = at
                &&
                (Q.pop_invoke q;
                 true))
      in
      List.for_all step ops
      && Q.size q = List.length !model
      &&
      ((* drain what's left and compare the full execution order *)
       List.iter
         (fun (_, s) ->
           expect := s :: !expect;
           Q.pop_invoke q)
         !model;
       !ran = !expect && Q.is_empty q))

let suite =
  [
    case "empty queue" test_empty;
    case "pop ascending" test_pop_ascending;
    case "FIFO for equal at" test_fifo_for_equal_at;
    case "growth" test_growth;
    case "NaN batch keys rejected" test_nan_batch_rejected;
    case "popped entries are released" test_release;
    case "push/pop cycle allocates nothing" test_no_allocation;
    case "lane append out of order or NaN rejected" test_lane_append_rejected;
    case "key writer rejects a seq or tag outside [0, 2^53) and a NaN time"
      test_key_writer_bounds;
    case "lane compaction keeps the order" test_lane_compaction;
    case "lane append/pop cycle allocates nothing" test_lane_no_allocation;
    Helpers.qcheck prop_sort_batch;
    Helpers.qcheck prop_model;
    Helpers.qcheck prop_sort_matches_list_sort;
    case "sorting a warm batch allocates nothing" test_sort_no_allocation;
  ]
