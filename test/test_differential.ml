(* Differential tests for the batched event queue.

   [Ref_queue] below is the pre-batching per-entry event queue, verbatim —
   the implementation every pinned corpus digest was recorded under. The
   model test drives random op sequences (singles, fan-out batches, lane
   timers, pops) through both queues, arming each batch in the current
   queue as one descriptor and each lane timer as one append, while feeding
   the reference the same (at, seq) pairs as individual entries. Pop order
   must match key for key AND closure for closure — in particular across
   fan-out and lane boundaries, where sub-events and plain entries share an
   [at] and only the seq tie-break separates them — and [size] and [min_at]
   must agree after every step. Times are relative to the clock (the key
   of the last pop), as the engine's are, so lane keys ascend. *)

open Helpers
module Q = Ssba_sim.Event_queue

(* ----- the per-entry reference, from the pre-batching tree ----- *)

module Ref_queue = struct
  let nop () = ()

  type t = {
    mutable ats : float array;
    mutable seqs : int array;
    mutable runs : (unit -> unit) array;
    mutable size : int;
  }

  let create ?(capacity = 64) () =
    let capacity = max capacity 1 in
    {
      ats = Array.make capacity 0.0;
      seqs = Array.make capacity 0;
      runs = Array.make capacity nop;
      size = 0;
    }

  let size t = t.size
  let is_empty t = t.size = 0

  let grow t =
    let cap = 2 * Array.length t.ats in
    let ats = Array.make cap 0.0 in
    let seqs = Array.make cap 0 in
    let runs = Array.make cap nop in
    Array.blit t.ats 0 ats 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.runs 0 runs 0 t.size;
    t.ats <- ats;
    t.seqs <- seqs;
    t.runs <- runs

  let push t ~at ~seq run =
    if t.size = Array.length t.ats then grow t;
    let i = ref t.size in
    t.size <- t.size + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      let pat = Array.unsafe_get t.ats parent in
      if pat > at || (pat = at && Array.unsafe_get t.seqs parent > seq) then begin
        Array.unsafe_set t.ats !i pat;
        Array.unsafe_set t.seqs !i (Array.unsafe_get t.seqs parent);
        Array.unsafe_set t.runs !i (Array.unsafe_get t.runs parent);
        i := parent
      end
      else continue := false
    done;
    Array.unsafe_set t.ats !i at;
    Array.unsafe_set t.seqs !i seq;
    Array.unsafe_set t.runs !i run

  let min_at t =
    if t.size = 0 then invalid_arg "Ref_queue.min_at: empty";
    t.ats.(0)

  let pop_run t =
    if t.size = 0 then invalid_arg "Ref_queue.pop_run: empty";
    let top = t.runs.(0) in
    let last = t.size - 1 in
    t.size <- last;
    if last = 0 then t.runs.(0) <- nop
    else begin
      let at = Array.unsafe_get t.ats last in
      let seq = Array.unsafe_get t.seqs last in
      let run = Array.unsafe_get t.runs last in
      Array.unsafe_set t.runs last nop;
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= last then continue := false
        else begin
          let r = l + 1 in
          let c =
            if r < last then begin
              let lat = Array.unsafe_get t.ats l
              and rat = Array.unsafe_get t.ats r in
              if
                rat < lat
                || rat = lat
                   && Array.unsafe_get t.seqs r < Array.unsafe_get t.seqs l
              then r
              else l
            end
            else l
          in
          let cat = Array.unsafe_get t.ats c in
          if cat < at || (cat = at && Array.unsafe_get t.seqs c < seq) then begin
            Array.unsafe_set t.ats !i cat;
            Array.unsafe_set t.seqs !i (Array.unsafe_get t.seqs c);
            Array.unsafe_set t.runs !i (Array.unsafe_get t.runs c);
            i := c
          end
          else continue := false
        end
      done;
      Array.unsafe_set t.ats !i at;
      Array.unsafe_set t.seqs !i seq;
      Array.unsafe_set t.runs !i run
    end;
    top
end

(* ----- driving both queues in lock-step --------------------------------- *)

(* Lane k's timers all fire [lane_delays.(k)] after they are armed, like one
   backoff level of the transport. The zero delay ties a lane's keys with
   the clock. *)
let lane_delays = [| 0.0; 0.25; 1.0 |]

(* One world: the current queue, the reference, one seq counter per side
   (a timer re-armed from a fire takes its seq while its side pops), the
   clock, and an execution log per side (each event appends its seq when
   fired). On the current queue's side every lane has a FIFO of (seq,
   re-arm chain) beside it, as the transport keeps its frames beside its
   lanes; a fired timer whose chain is [k :: rest] re-arms on lane k with
   [rest]. *)
type world = {
  q : Q.t;
  r : Ref_queue.t;
  mutable seq_q : int;
  mutable seq_r : int;
  mutable now : float;
  mutable ran_q : int list;  (* newest first *)
  mutable ran_r : int list;
  lanes : Q.batch array;
  fifos : (int * int list) Queue.t array;
}

let take_seq w =
  let s = w.seq_q in
  check_int "seq counters agree" s w.seq_r;
  w.seq_q <- s + 1;
  w.seq_r <- s + 1;
  s

let rec lane_q w k chain =
  let s = w.seq_q in
  w.seq_q <- s + 1;
  Q.append w.q w.lanes.(k) ~at:(w.now +. lane_delays.(k)) ~seq:s ~tag:s;
  Queue.push (s, chain) w.fifos.(k)

and fire_q w k b j =
  let s, chain = Queue.pop w.fifos.(k) in
  check_bool "the lane fires itself" true (b == w.lanes.(k));
  check_int "the fired slot is the FIFO's head" s (Q.key_seq b j);
  check_int "its tag rode along" s (Q.key_tag b j);
  w.ran_q <- s :: w.ran_q;
  match chain with [] -> () | k' :: rest -> lane_q w k' rest

let rec lane_r w k chain =
  let s = w.seq_r in
  w.seq_r <- s + 1;
  Ref_queue.push w.r ~at:(w.now +. lane_delays.(k)) ~seq:s (fun () ->
      w.ran_r <- s :: w.ran_r;
      match chain with [] -> () | k' :: rest -> lane_r w k' rest)

let make_world () =
  let w =
    {
      q = Q.create ~capacity:1 ();
      r = Ref_queue.create ~capacity:1 ();
      seq_q = 0;
      seq_r = 0;
      now = 0.0;
      ran_q = [];
      ran_r = [];
      lanes =
        Array.mapi (fun k _ -> Q.make_batch ~capacity:1 ~id:k ()) lane_delays;
      fifos = Array.map (fun _ -> Queue.create ()) lane_delays;
    }
  in
  Array.iteri (fun k b -> b.Q.b_fire <- fire_q w k) w.lanes;
  w

let push_single w off =
  let s = take_seq w in
  let at = w.now +. off in
  Q.push w.q ~at ~seq:s (fun () -> w.ran_q <- s :: w.ran_q);
  Ref_queue.push w.r ~at ~seq:s (fun () -> w.ran_r <- s :: w.ran_r)

(* Arm [offs] as ONE descriptor in the current queue (sorted by (at, seq),
   as the network does) and as per-entry pushes in the reference. Seqs are
   assigned in receiver order BEFORE sorting — exactly the per-entry
   scheme's assignment, which the batched network reproduces via
   [Engine.next_seq]. *)
let push_fanout w offs =
  let keyed = List.map (fun off -> let s = take_seq w in (w.now +. off, s)) offs in
  List.iter
    (fun (at, s) ->
      Ref_queue.push w.r ~at ~seq:s (fun () -> w.ran_r <- s :: w.ran_r))
    keyed;
  let sorted =
    List.sort
      (fun (a1, s1) (a2, s2) ->
        if a1 < a2 then -1
        else if a1 > a2 then 1
        else Int.compare s1 s2)
      keyed
  in
  let b = Q.make_batch ~capacity:(List.length sorted) () in
  List.iteri (fun i (at, s) -> Q.set_key b i ~at ~seq:s ~tag:s) sorted;
  b.Q.b_count <- List.length sorted;
  b.Q.b_next <- 0;
  b.Q.b_fire <- (fun b i -> w.ran_q <- Q.key_tag b i :: w.ran_q);
  Q.push_batch w.q b

let lane_both w k chain =
  lane_q w k chain;
  lane_r w k chain

let check_agree w =
  check_int "size agrees" (Ref_queue.size w.r) (Q.size w.q);
  if not (Q.is_empty w.q) then
    check_float "min_at agrees" (Ref_queue.min_at w.r) (Q.min_at w.q)

(* The clock moves to the popped key before either side runs its event, so
   a timer re-armed from a fire gets the same key on both sides. *)
let pop_both w =
  let qe = Q.is_empty w.q and re = Ref_queue.is_empty w.r in
  check_bool "emptiness agrees" re qe;
  if not qe then begin
    check_float "min_at agrees" (Ref_queue.min_at w.r) (Q.min_at w.q);
    w.now <- Q.min_at w.q;
    Q.pop_invoke w.q;
    (Ref_queue.pop_run w.r) ()
  end;
  check_agree w

let drain_both w =
  while not (Q.is_empty w.q) || not (Ref_queue.is_empty w.r) do
    pop_both w
  done

(* ----- the random-op differential model --------------------------------- *)

type op =
  | Single of float
  | Fanout of float list
  | Lane of int * int list  (* lane, re-arm chain *)
  | Pop

let gen_ops =
  let lane = QCheck.Gen.int_bound (Array.length lane_delays - 1) in
  QCheck.Gen.(
    list
      (frequency
         [
           (* a coarse grid of offsets from the clock maximises equal-(at)
              collisions between sub-events, lane timers and plain
              entries *)
           (4, map (fun i -> Single (float_of_int i /. 4.0)) (int_bound 8));
           ( 4,
             map
               (fun l -> Fanout (List.map (fun i -> float_of_int i /. 4.0) l))
               (list_size (int_range 1 6) (int_bound 8)) );
           (4, map2 (fun k chain -> Lane (k, chain)) lane
                 (list_size (int_bound 3) lane));
           (5, return Pop);
         ]))

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Single off -> Printf.sprintf "single +%.2f" off
         | Fanout offs ->
             Printf.sprintf "fanout[%s]"
               (String.concat "," (List.map (Printf.sprintf "+%.2f") offs))
         | Lane (k, chain) ->
             Printf.sprintf "lane %d[%s]" k
               (String.concat "," (List.map string_of_int chain))
         | Pop -> "pop")
       ops)

let arb_ops = QCheck.make ~print:print_ops gen_ops

let prop_differential =
  QCheck.Test.make
    ~name:"batched queue pops byte-identically to the per-entry reference"
    ~count:500 arb_ops (fun ops ->
      let w = make_world () in
      List.iter
        (fun op ->
          (match op with
          | Single off -> push_single w off
          | Fanout offs -> push_fanout w offs
          | Lane (k, chain) -> lane_both w k chain
          | Pop -> pop_both w);
          check_agree w)
        ops;
      Q.size w.q = Ref_queue.size w.r
      &&
      (drain_both w;
       (* identical execution order, including every equal-key tie *)
       w.ran_q = w.ran_r))

(* ----- equal-key FIFO stability across a fan-out boundary, pinned ------- *)

let test_fifo_across_fanout () =
  let w = make_world () in
  push_single w 1.0;
  (* seq 0 *)
  push_fanout w [ 1.0; 1.0; 0.5 ];
  (* seqs 1 2 3 *)
  push_single w 1.0;
  (* seq 4 *)
  push_fanout w [ 0.5; 1.0 ];
  (* seqs 5 6 *)
  drain_both w;
  check_bool "reference FIFO order" true
    (List.rev w.ran_r = [ 3; 5; 0; 1; 2; 4; 6 ]);
  check_bool "batched queue interleaves identically" true
    (w.ran_q = w.ran_r)

(* ----- a lane re-armed from its own fire, pinned ------------------------ *)

let test_lane_rearm () =
  let w = make_world () in
  lane_both w 1 [ 1 ];
  (* seq 0 at 0.25; its fire appends seq 6 at 0.5 behind seq 1, on its own
     lane while that is still armed *)
  lane_both w 1 [];
  (* seq 1 at 0.25, appended to the armed lane *)
  push_single w 0.25;
  (* seq 2, tied with seqs 0 and 1 *)
  lane_both w 2 [ 1; 1 ];
  (* seq 3 at 1.0: re-arms lane 1, idle by then, with seq 7 at 1.25, whose
     fire re-arms its own lane, idle again, with seq 8 at 1.5 *)
  lane_both w 0 [ 0 ];
  (* seq 4 at 0.0, the clock: its fire re-arms its own lane, which has just
     gone idle, with seq 5 at 0.0 *)
  check_int "one heap entry per lane, one for the single" 4 (Q.entries w.q);
  drain_both w;
  check_bool "reference order" true
    (List.rev w.ran_r = [ 4; 5; 0; 1; 2; 6; 3; 7; 8 ]);
  check_bool "lanes interleave identically" true (w.ran_q = w.ran_r)

let suite =
  [
    Helpers.qcheck prop_differential;
    case "equal-key FIFO across fan-out boundaries" test_fifo_across_fanout;
    case "a lane re-arms from its own fire, idle or armed" test_lane_rearm;
  ]
