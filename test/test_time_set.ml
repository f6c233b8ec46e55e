(* Tests for the sorted time-stamp set backing last(G,m).

   The model test replays random add/retain/clear sequences against a plain
   float-list reference whose queries are the old list-based semantics:
   [defined_at] must equal "exists s <= at with at - s <= expiry" and
   [retain_range] must keep exactly the stamps in [lo, hi]. *)

open Helpers
module T = Ssba_core.Time_set

let test_basics () =
  let s = T.create () in
  check_bool "empty" true (T.is_empty s);
  T.add s 2.0;
  T.add s 1.0;
  T.add s 3.0;
  check_int "size" 3 (T.size s);
  check_bool "sorted" true (T.to_list s = [ 1.0; 2.0; 3.0 ]);
  T.add s 2.0;
  check_int "duplicates dropped" 3 (T.size s)

let test_defined_at () =
  let s = T.create () in
  T.add s 10.0;
  check_bool "exact stamp" true (T.defined_at s ~at:10.0 ~expiry:1.0);
  check_bool "within expiry" true (T.defined_at s ~at:10.5 ~expiry:1.0);
  check_bool "expired" false (T.defined_at s ~at:11.5 ~expiry:1.0);
  check_bool "before the stamp" false (T.defined_at s ~at:9.9 ~expiry:1.0)

let test_retain_range () =
  let s = T.create () in
  List.iter (T.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  T.retain_range s ~lo:2.0 ~hi:4.0;
  check_bool "inclusive bounds kept" true (T.to_list s = [ 2.0; 3.0; 4.0 ]);
  T.retain_range s ~lo:10.0 ~hi:20.0;
  check_bool "disjoint range empties" true (T.is_empty s)

(* Boundary pin for the predecessor-witness search (companion to the block-R
   gate pins in test_ss_byz_agree): [defined_at] is an inclusive <= at the
   expiry boundary, the witness must be the LARGEST stamp <= at, and a stamp
   exactly at [at] is its own witness. Block K's freshness query (was
   last(G,m) defined d ago?) rides on these exact semantics. *)
let test_predecessor_witness_boundary () =
  let s = T.create () in
  T.add s 10.0;
  T.add s 12.0;
  check_bool "exactly at the expiry boundary counts (<=, not <)" true
    (T.defined_at s ~at:11.0 ~expiry:1.0);
  check_bool "one ulp past the boundary does not" false
    (T.defined_at s ~at:(11.0 +. 0x1p-20) ~expiry:1.0);
  check_bool "a stamp exactly at [at] is a witness even with zero expiry" true
    (T.defined_at s ~at:12.0 ~expiry:0.0);
  check_bool "a stamp later than [at] is never a witness" false
    (T.defined_at s ~at:11.5 ~expiry:0.25);
  (* the witness is the predecessor: 12.0 (not 10.0) answers at = 12.25 *)
  check_bool "largest stamp <= at is the witness" true
    (T.defined_at s ~at:12.25 ~expiry:0.25)

let test_clear () =
  let s = T.create () in
  T.add s 1.0;
  T.clear s;
  check_bool "cleared" true (T.is_empty s);
  T.add s 2.0;
  check_bool "usable after clear" true (T.to_list s = [ 2.0 ])

(* A NaN stamp used to land first and make every later, smaller stamp land
   in front of it: [add 5.0; add nan; add 1.0] left [1; nan; 5], so 5.0 was
   no witness at 5.5 and a retention to [2, 10] dropped it. NaN is now
   dropped on insert. *)
let test_nan_stamp_dropped () =
  let s = T.create () in
  T.add s 5.0;
  T.add s Float.nan;
  T.add s 1.0;
  check_bool "NaN dropped, order kept" true (T.to_list s = [ 1.0; 5.0 ]);
  check_bool "5.0 witnesses 5.5" true (T.defined_at s ~at:5.5 ~expiry:1.0);
  T.retain_range s ~lo:2.0 ~hi:10.0;
  check_bool "in-range stamp kept" true (T.to_list s = [ 5.0 ]);
  let only = T.create () in
  T.add only Float.nan;
  check_bool "a lone NaN leaves the set empty" true (T.is_empty only)

(* --- model test vs a float-list reference --- *)

type op = Add of float | Retain of float * float | Clear

let gen_ops =
  QCheck.Gen.(
    list
      (frequency
         [
           (5, map (fun i -> Add (float_of_int i /. 2.0)) (int_bound 12));
           ( 2,
             map2
               (fun a b -> Retain (float_of_int a /. 2.0, float_of_int b /. 2.0))
               (int_bound 12) (int_bound 12) );
           (1, return Clear);
         ]))

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Add x -> Printf.sprintf "add %.1f" x
         | Retain (lo, hi) -> Printf.sprintf "retain [%.1f,%.1f]" lo hi
         | Clear -> "clear")
       ops)

let arb_ops = QCheck.make ~print:print_ops gen_ops

let prop_model =
  QCheck.Test.make ~name:"time set matches float-list model" ~count:500 arb_ops
    (fun ops ->
      let s = T.create () in
      let model = ref [] in
      (* unsorted, duplicates possible *)
      List.iter
        (fun op ->
          match op with
          | Add x ->
              T.add s x;
              model := x :: !model
          | Retain (lo, hi) ->
              T.retain_range s ~lo ~hi;
              model := List.filter (fun x -> lo <= x && x <= hi) !model
          | Clear ->
              T.clear s;
              model := [])
        ops;
      let ats = List.init 25 (fun i -> float_of_int i /. 2.0) in
      T.to_list s = List.sort_uniq compare !model
      && List.for_all
           (fun at ->
             List.for_all
               (fun expiry ->
                 T.defined_at s ~at ~expiry
                 = List.exists (fun x -> x <= at && at -. x <= expiry) !model)
               [ 0.0; 0.5; 2.0; 100.0 ])
           ats)

let suite =
  [
    case "basics" test_basics;
    case "defined_at" test_defined_at;
    case "retain_range" test_retain_range;
    case "predecessor-witness boundary" test_predecessor_witness_boundary;
    case "clear" test_clear;
    case "NaN stamp dropped" test_nan_stamp_dropped;
    Helpers.qcheck prop_model;
  ]
