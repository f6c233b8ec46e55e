(* Tests for the flat per-sender stamp segments msgd-broadcast counts with. *)

open Helpers
module S = Ssba_core.Stamps
module L = Ssba_core.Recv_log

let n = 5

(* Three segments, as a msgd-broadcast trip holds them; the tests use the
   middle one and check the outer two are never touched. *)
let fresh () = Array.make (3 * n) Float.nan
let off = n

let entries a =
  let acc = ref [] in
  S.iter a ~off ~n (fun ~sender ~at -> acc := (at, sender) :: !acc);
  List.rev !acc

(* The network never delivers from a sender outside [0, n): such a sender
   holds no slot, so it never lands in a neighbouring segment. *)
let test_out_of_range_sender () =
  let a = fresh () in
  List.iter
    (fun sender ->
      check_int "note ignored" 0 (S.note a ~off ~n ~sender ~at:1.0);
      check_int "put ignored" 0 (S.put a ~off ~n ~sender ~at:1.0);
      check_bool "not mem" false (S.mem a ~off ~n ~sender))
    [ -1; n; n + 1; min_int; max_int ];
  check_bool "every slot of every segment still absent" true
    (Array.for_all Float.is_nan a)

(* A NaN stamp is dropped: kept, it would be present for [mem] and the
   caller's count, yet no prune bound could ever remove it. *)
let test_nan_dropped () =
  let a = fresh () in
  check_int "note of NaN ignored" 0 (S.note a ~off ~n ~sender:1 ~at:Float.nan);
  check_int "put of NaN ignored" 0 (S.put a ~off ~n ~sender:1 ~at:Float.nan);
  check_bool "absent" false (S.mem a ~off ~n ~sender:1);
  ignore (S.note a ~off ~n ~sender:1 ~at:2.0);
  check_int "NaN over a stamp: no change" 0 (S.note a ~off ~n ~sender:1 ~at:Float.nan);
  check_int "put of NaN over a stamp: no change" 0
    (S.put a ~off ~n ~sender:1 ~at:Float.nan);
  check_bool "stamp kept" true (entries a = [ (2.0, 1) ])

let test_iter_order () =
  let a = fresh () in
  List.iter
    (fun (sender, at) -> ignore (S.note a ~off ~n ~sender ~at))
    [ (4, 1.0); (0, 2.0); (3, 1.0); (1, Float.neg_infinity); (2, 2.0) ];
  check_bool "ascending time, ties by ascending sender" true
    (entries a = [ (Float.neg_infinity, 1); (1.0, 3); (1.0, 4); (2.0, 0); (2.0, 2) ])

(* --- model test: the stamps against the sorted receive log --- *)

type op =
  | Note of int * float
  | Put of int * float
  | Prune of float * float
  | Clear

(* Stamps and bounds share one small grid, so prune bounds land exactly on
   existing stamps and equal stamps tie between senders. *)
let gen_ops =
  QCheck.Gen.(
    let time = map (fun i -> float_of_int i /. 4.0) (int_bound 12) in
    let sender = int_bound (n - 1) in
    let hi = frequency [ (5, time); (1, return Float.infinity) ] in
    list
      (frequency
         [
           (6, map2 (fun s at -> Note (s, at)) sender time);
           (2, map2 (fun s at -> Put (s, at)) sender time);
           (3, map2 (fun lo hi -> Prune (lo, hi)) time hi);
           (1, return Clear);
         ]))

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Note (s, at) -> Printf.sprintf "note %d@%g" s at
         | Put (s, at) -> Printf.sprintf "put %d@%g" s at
         | Prune (lo, hi) -> Printf.sprintf "prune [%g, %g]" lo hi
         | Clear -> "clear")
       ops)

let log_entries l =
  let acc = ref [] in
  L.iter_entries l (fun ~sender ~at -> acc := (at, sender) :: !acc);
  List.rev !acc

let log_mem l ~sender = List.exists (fun (_, s) -> s = sender) (log_entries l)

let prop_matches_recv_log =
  QCheck.Test.make ~name:"stamps match the receive log step by step" ~count:1000
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      let a = fresh () in
      (* the outer segments hold stamps the middle one must never touch *)
      Array.fill a 0 n 9.0;
      Array.fill a (2 * n) n 9.0;
      let count = ref 0 in
      let l = L.create () in
      List.for_all
        (fun op ->
          (match op with
          | Note (sender, at) ->
              count := !count + S.note a ~off ~n ~sender ~at;
              L.note l ~sender ~at
          | Put (sender, at) ->
              count := !count + S.put a ~off ~n ~sender ~at;
              L.corrupt l ~sender ~at
          | Prune (lo, hi) ->
              count := !count - S.prune a ~off ~n ~lo ~hi;
              L.sanitize l ~now:hi;
              L.decay l ~horizon:lo
          | Clear ->
              S.clear a ~off ~n;
              count := 0;
              L.clear l);
          !count = L.count l
          && List.for_all
               (fun sender -> S.mem a ~off ~n ~sender = log_mem l ~sender)
               (List.init n Fun.id)
          && entries a = log_entries l
          && Array.for_all (( = ) 9.0) (Array.sub a 0 n)
          && Array.for_all (( = ) 9.0) (Array.sub a (2 * n) n))
        ops)

(* A warmed arrival cycle — joins, a refresh, an ignored replay, a presence
   test, a prune and a clear — allocates nothing. Literal stamps are static
   blocks, so passing one boxes nothing even across the dev profile's
   -opaque call boundary. *)
let cycle a =
  ignore (S.note a ~off ~n ~sender:3 ~at:1.0);
  ignore (S.note a ~off ~n ~sender:1 ~at:1.5);
  ignore (S.note a ~off ~n ~sender:3 ~at:2.0);
  ignore (S.note a ~off ~n ~sender:1 ~at:1.25);
  ignore (S.mem a ~off ~n ~sender:4);
  ignore (S.prune a ~off ~n ~lo:1.75 ~hi:2.5);
  S.clear a ~off ~n

let test_no_allocation () =
  let a = fresh () in
  cycle a;
  let w0 = Gc.minor_words () in
  cycle a;
  cycle a;
  let words = Gc.minor_words () -. w0 in
  check_float "minor words for two warmed cycles" 0.0 words

let suite =
  [
    case "sender outside [0, n) ignored" test_out_of_range_sender;
    case "NaN stamp dropped" test_nan_dropped;
    case "iter: ascending time, then sender" test_iter_order;
    case "note/prune cycle allocates nothing" test_no_allocation;
    Helpers.qcheck prop_matches_recv_log;
  ]
