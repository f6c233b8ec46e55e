(* Differential tests for the batched event queue.

   [Ref_queue] below is the pre-batching per-entry event queue, verbatim —
   the implementation every pinned corpus digest was recorded under. The
   model test drives random op sequences (singles, fan-out batches, pops)
   through both queues, arming each batch in the current queue as one
   descriptor while feeding the reference the same (at, seq) pairs as
   individual entries. Pop order must match key for key AND closure for
   closure — in particular across fan-out boundaries, where a batch sub-event
   and a plain entry share an [at] and only the seq tie-break separates
   them. *)

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

(* One world: the current queue, the reference, a shared seq counter and a
   shared execution log (each closure appends its seq when fired). *)
type world = {
  q : Q.t;
  r : Ref_queue.t;
  mutable seq : int;
  mutable ran_q : int list;  (* newest first *)
  mutable ran_r : int list;
}

let make_world () =
  {
    q = Q.create ~capacity:1 ();
    r = Ref_queue.create ~capacity:1 ();
    seq = 0;
    ran_q = [];
    ran_r = [];
  }

let push_single w at =
  let s = w.seq in
  w.seq <- s + 1;
  Q.push w.q ~at ~seq:s (fun () -> w.ran_q <- s :: w.ran_q);
  Ref_queue.push w.r ~at ~seq:s (fun () -> w.ran_r <- s :: w.ran_r)

(* Arm [ats] as ONE descriptor in the current queue (sorted by (at, seq), as
   the network does) and as per-entry pushes in the reference. Seqs are
   assigned in receiver order BEFORE sorting — exactly the per-entry
   scheme's assignment, which the batched network reproduces via
   [Engine.next_seq]. *)
let push_fanout w ats =
  let keyed = List.map (fun at -> let s = w.seq in w.seq <- s + 1; (at, s)) ats in
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
  List.iteri
    (fun i (at, s) ->
      b.Q.b_ats.(i) <- at;
      b.Q.b_seqs.(i) <- s)
    sorted;
  let seq_of = Array.of_list (List.map snd sorted) in
  b.Q.b_count <- List.length sorted;
  b.Q.b_next <- 0;
  b.Q.b_fire <- (fun i -> w.ran_q <- seq_of.(i) :: w.ran_q);
  Q.push_batch w.q b

let pop_both w =
  let qe = Q.is_empty w.q and re = Ref_queue.is_empty w.r in
  check_bool "emptiness agrees" re qe;
  if not qe then begin
    check_float "min_at agrees" (Ref_queue.min_at w.r) (Q.min_at w.q);
    Q.pop_invoke w.q;
    (Ref_queue.pop_run w.r) ()
  end

let drain_both w =
  while not (Q.is_empty w.q) || not (Ref_queue.is_empty w.r) do
    pop_both w
  done

(* ----- the random-op differential model --------------------------------- *)

type op = Single of float | Fanout of float list | Pop

let gen_ops =
  QCheck.Gen.(
    list
      (frequency
         [
           (* a coarse time grid maximises equal-(at) collisions between
              batch sub-events and plain entries *)
           (4, map (fun i -> Single (float_of_int i /. 4.0)) (int_bound 8));
           ( 4,
             map
               (fun l -> Fanout (List.map (fun i -> float_of_int i /. 4.0) l))
               (list_size (int_range 1 6) (int_bound 8)) );
           (4, return Pop);
         ]))

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Single at -> Printf.sprintf "single %.2f" at
         | Fanout ats ->
             Printf.sprintf "fanout[%s]"
               (String.concat "," (List.map (Printf.sprintf "%.2f") ats))
         | Pop -> "pop")
       ops)

let arb_ops = QCheck.make ~print:print_ops gen_ops

let prop_differential =
  QCheck.Test.make
    ~name:"batched queue pops byte-identically to the per-entry reference"
    ~count:500 arb_ops (fun ops ->
      let w = make_world () in
      List.iter
        (function
          | Single at -> push_single w at
          | Fanout ats -> push_fanout w ats
          | Pop -> pop_both w)
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

let suite =
  [
    Helpers.qcheck prop_differential;
    case "equal-key FIFO across fan-out boundaries" test_fifo_across_fanout;
  ]
