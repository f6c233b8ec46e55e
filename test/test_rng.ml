(* Tests for the splittable PRNG. *)

open Helpers
module Rng = Ssba_sim.Rng

let test_determinism () =
  let a = Rng.create 17 and b = Rng.create 17 in
  for _ = 1 to 100 do
    check_int "same seed, same stream" (Rng.bits a) (Rng.bits b)
  done

let test_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.bits a = Rng.bits b then incr same
  done;
  check_bool "different seeds diverge" true (!same < 5)

let test_split_independent () =
  let root = Rng.create 3 in
  let a = Rng.split root in
  let b = Rng.split root in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.bits a = Rng.bits b then incr same
  done;
  check_bool "split streams diverge" true (!same < 5)

let test_split_deterministic () =
  let mk () =
    let root = Rng.create 9 in
    let a = Rng.split root in
    let _b = Rng.split root in
    let c = Rng.split root in
    (Rng.bits a, Rng.bits c)
  in
  check_bool "splitting is reproducible" true (mk () = mk ())

let test_copy () =
  let a = Rng.create 5 in
  let _ = Rng.bits a in
  let b = Rng.copy a in
  check_int "copy preserves state" (Rng.bits a) (Rng.bits b)

let test_int_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let x = Rng.int r 7 in
    check_bool "int in [0,7)" true (x >= 0 && x < 7)
  done;
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_int_in_range () =
  let r = Rng.create 12 in
  for _ = 1 to 200 do
    let x = Rng.int_in_range r ~lo:(-3) ~hi:3 in
    check_bool "in [-3,3]" true (x >= -3 && x <= 3)
  done

let test_int_covers_range () =
  let r = Rng.create 13 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int r 5) <- true
  done;
  Array.iteri (fun i b -> check_bool (Printf.sprintf "value %d reached" i) true b) seen

let test_float_bounds () =
  let r = Rng.create 14 in
  for _ = 1 to 1000 do
    let x = Rng.float r 2.5 in
    check_bool "float in [0,2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_float_in_range () =
  let r = Rng.create 15 in
  for _ = 1 to 200 do
    let x = Rng.float_in_range r ~lo:(-1.0) ~hi:1.0 in
    check_bool "in [-1,1)" true (x >= -1.0 && x < 1.0)
  done

let test_bool_balanced () =
  let r = Rng.create 16 in
  let t = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bool r then incr t
  done;
  check_bool "bool roughly balanced" true (!t > 400 && !t < 600)

let test_pick () =
  let r = Rng.create 17 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    check_bool "picked element is a member" true
      (Array.mem (Rng.pick r arr) arr)
  done;
  Alcotest.check_raises "empty array rejected"
    (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick r [||]))

let test_pick_list () =
  let r = Rng.create 18 in
  for _ = 1 to 50 do
    check_bool "picked element is a member" true
      (List.mem (Rng.pick_list r [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done

let test_shuffle_permutation () =
  let r = Rng.create 19 in
  let arr = Array.init 20 (fun i -> i) in
  let sh = Rng.shuffle r arr in
  check_bool "shuffle is a permutation" true
    (List.sort compare (Array.to_list sh) = Array.to_list arr);
  check_bool "original untouched" true (arr = Array.init 20 (fun i -> i))

let test_subset () =
  let r = Rng.create 20 in
  let arr = Array.init 10 (fun i -> i) in
  let s = Rng.subset r ~k:4 arr in
  check_int "subset size" 4 (Array.length s);
  check_int "subset distinct" 4
    (List.length (List.sort_uniq compare (Array.to_list s)));
  Array.iter (fun x -> check_bool "member" true (Array.mem x arr)) s

(* qcheck: int stays in bounds for arbitrary positive bounds and seeds. *)
let prop_int_bounds =
  QCheck.Test.make ~name:"rng int bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let prop_float_bounds =
  QCheck.Test.make ~name:"rng float bounds" ~count:500
    QCheck.(pair small_int (float_range 0.001 1000.0))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.float r bound in
      x >= 0.0 && x < bound)

(* [skip t k] lands exactly where [k] draws leave the stream: the next 64
   draws of each kind agree. The real draws mix the kinds, since each takes
   one step whatever it returns. *)
let draw_kinds r = List.init 64 (fun _ -> (Rng.bits r, Rng.float r 1.0, Rng.int r 1000))

let prop_skip_matches_draws =
  QCheck.Test.make ~name:"skip k lands where k draws do" ~count:60
    QCheck.(pair int (oneof [ always 0; always 1; int_range 0 1_000_000 ]))
    (fun (seed, k) ->
      let drawn = Rng.create seed and skipped = Rng.create seed in
      for i = 1 to k do
        match i land 3 with
        | 0 -> ignore (Rng.bits drawn)
        | 1 -> ignore (Rng.float drawn 1.0)
        | 2 -> ignore (Rng.int drawn 7)
        | _ -> ignore (Rng.bool drawn)
      done;
      Rng.skip skipped k;
      draw_kinds drawn = draw_kinds skipped)

(* Far past any real draw: skipping a then b is skipping a + b, for a and b
   in [2^60, 2^61), so a + b stays below [max_int]. *)
let prop_skip_adds =
  QCheck.Test.make ~name:"skip a then b is skip (a + b) near 2^62" ~count:200
    QCheck.(triple int int int)
    (fun (seed, x, y) ->
      let big v = (v land ((1 lsl 60) - 1)) lor (1 lsl 60) in
      let a = big x and b = big y in
      let twice = Rng.create seed and once = Rng.create seed in
      Rng.skip twice a;
      Rng.skip twice b;
      Rng.skip once (a + b);
      draw_kinds twice = draw_kinds once)

let test_skip_rejects_negative () =
  Alcotest.check_raises "negative count"
    (Invalid_argument "Rng.skip: negative count") (fun () ->
      Rng.skip (Rng.create 1) (-1))

let suite =
  [
    case "determinism" test_determinism;
    case "different seeds diverge" test_different_seeds;
    case "split independence" test_split_independent;
    case "split determinism" test_split_deterministic;
    case "copy" test_copy;
    case "int bounds" test_int_bounds;
    case "int_in_range" test_int_in_range;
    case "int covers range" test_int_covers_range;
    case "float bounds" test_float_bounds;
    case "float_in_range" test_float_in_range;
    case "bool balanced" test_bool_balanced;
    case "pick" test_pick;
    case "pick_list" test_pick_list;
    case "shuffle permutation" test_shuffle_permutation;
    case "subset" test_subset;
    Helpers.qcheck prop_int_bounds;
    Helpers.qcheck prop_float_bounds;
    Helpers.qcheck prop_skip_matches_draws;
    Helpers.qcheck prop_skip_adds;
    case "skip rejects a negative count" test_skip_rejects_negative;
  ]
