(* Tests for the delay policies and message envelopes. *)

open Helpers
module Delay = Ssba_net.Delay
module Msg = Ssba_net.Msg
module Rng = Ssba_sim.Rng

let draw policy ~src ~dst =
  Delay.draw policy ~rng:(Rng.create 1) ~counters:(Delay.counters ()) ~src ~dst

let test_fixed () =
  check_float "fixed" 0.25 (draw (Delay.fixed 0.25) ~src:0 ~dst:1);
  List.iter
    (fun d ->
      match Delay.fixed d with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "fixed delay %g accepted" d)
    [ -1.0; Float.nan ]

let test_uniform () =
  let policy = Delay.uniform ~lo:0.1 ~hi:0.2 in
  let rng = Rng.create 2 and counters = Delay.counters () in
  for _ = 1 to 500 do
    let x = Delay.draw policy ~rng ~counters ~src:0 ~dst:1 in
    check_bool "within range" true (x >= 0.1 && x < 0.2)
  done;
  match Delay.uniform ~lo:0.2 ~hi:0.1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "inverted range accepted"

let test_bimodal () =
  let policy = Delay.bimodal ~fast:0.01 ~slow:0.1 ~slow_prob:0.3 in
  let rng = Rng.create 3 and counters = Delay.counters () in
  let slow = ref 0 in
  for _ = 1 to 1000 do
    let x = Delay.draw policy ~rng ~counters ~src:0 ~dst:1 in
    check_bool "one of the two modes" true (x = 0.01 || x = 0.1);
    if x = 0.1 then incr slow
  done;
  check_bool "slow fraction near 30%" true (!slow > 200 && !slow < 400);
  List.iter
    (fun (fast, slow, slow_prob, what) ->
      match Delay.bimodal ~fast ~slow ~slow_prob with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" what)
    [ (0.2, 0.1, 0.5, "slow < fast"); (0.1, 0.2, 1.5, "probability > 1");
      (0.1, 0.2, Float.nan, "NaN probability") ]

(* Edge draws one atom per hop with [Rng.int rng len], the same RNG draw the
   boundary-sampling closure made before delays became data. *)
let test_edge () =
  let atoms = [ 0.0005; 0.00073; 0.00088; 0.001 ] in
  let arr = Array.of_list atoms in
  let rng = Rng.create 7 and reference = Rng.create 7 in
  let counters = Delay.counters () in
  for _ = 1 to 200 do
    check_float "same atom as the closure" arr.(Rng.int reference (Array.length arr))
      (Delay.draw (Delay.Edge { atoms }) ~rng ~counters ~src:0 ~dst:1)
  done;
  check_bool "no atoms is invalid" false (Delay.valid (Delay.Edge { atoms = [] }))

(* The k-th draw on a scripted link returns the k-th listed delay, then the
   default; unlisted links always draw the default. *)
let test_scripted () =
  let policy = Delay.Scripted { default = 0.5; links = [ ((0, 1), [ 0.1; 0.2 ]) ] } in
  let rng = Rng.create 1 and counters = Delay.counters () in
  let draw ~src ~dst = Delay.draw policy ~rng ~counters ~src ~dst in
  check_float "1st on 0->1" 0.1 (draw ~src:0 ~dst:1);
  check_float "unlisted 1->0" 0.5 (draw ~src:1 ~dst:0);
  check_float "2nd on 0->1" 0.2 (draw ~src:0 ~dst:1);
  check_float "past the list" 0.5 (draw ~src:0 ~dst:1);
  check_float "fresh counters start over" 0.1
    (Delay.draw policy ~rng ~counters:(Delay.counters ()) ~src:0 ~dst:1);
  List.iter
    (fun (bad, what) -> check_bool what false (Delay.valid bad))
    [
      (Delay.Scripted { default = -0.1; links = [] }, "negative default");
      (Delay.Scripted { default = 0.1; links = [ ((0, 1), [ Float.nan ]) ] }, "NaN entry");
    ]

(* Over a network the counters belong to the run: a surge and its restore
   keep counting, and so does a duplicate copy's draw. *)
let test_scripted_network_counters () =
  let engine = Ssba_sim.Engine.create () in
  let policy = Delay.Scripted { default = 0.9; links = [ ((0, 1), [ 0.1; 0.2; 0.3; 0.4 ]) ] } in
  let net = Ssba_net.Network.create ~engine ~n:2 ~delay:policy ~rng:(Rng.create 1) () in
  let arrivals = ref [] in
  (* every send is made at time 0, so an arrival time is its delay *)
  Ssba_net.Network.set_handler net 1 (fun _ ->
      arrivals := Ssba_sim.Engine.now engine :: !arrivals);
  let send () = Ssba_net.Network.send net ~src:0 ~dst:1 "m" in
  send ();
  Ssba_net.Network.set_delay net (Delay.scaled 10.0 policy);
  send ();
  Ssba_net.Network.set_delay net policy;
  Ssba_net.Network.set_dup_prob net 1.0;
  send ();
  Ssba_net.Network.set_dup_prob net 0.0;
  send ();
  ignore (Ssba_sim.Engine.run engine);
  let got = List.sort compare !arrivals in
  List.iter2
    (fun want x -> check_float ~eps:1e-12 "k-th draw" want x)
    [ 0.1; 0.3; 0.4; 0.9; 2.0 ] got

let test_msg_make () =
  let m = Msg.make ~src:1 ~dst:2 "payload" in
  check_int "src" 1 m.Msg.src;
  check_int "dst" 2 m.Msg.dst;
  check_str "payload" "payload" m.Msg.payload

(* A forged injection reaches its handler with the claimed sender as src;
   the envelope carries no mark of it. *)
let test_msg_forge () =
  let engine = Ssba_sim.Engine.create () in
  let net =
    Ssba_net.Network.create ~engine ~n:3 ~delay:(Delay.fixed 0.1)
      ~rng:(Rng.create 1) ()
  in
  let seen = ref None in
  Ssba_net.Network.set_handler net 2 (fun m ->
      seen := Some (m.Msg.src, m.Msg.dst, m.Msg.payload));
  Ssba_net.Network.inject_forged net ~claimed_src:9 ~dst:2 ~delay:0.5 "x";
  ignore (Ssba_sim.Engine.run engine);
  check_bool "claimed src, dst and payload" true (!seen = Some (9, 2, "x"))

let test_msg_pp () =
  let m = Msg.make ~src:9 ~dst:2 "x" in
  check_str "src->dst payload" "9->2 x" (Fmt.str "%a" (Msg.pp Fmt.string) m)

let suite =
  [
    case "fixed" test_fixed;
    case "uniform" test_uniform;
    case "bimodal" test_bimodal;
    case "edge" test_edge;
    case "scripted" test_scripted;
    case "scripted counters over a network" test_scripted_network_counters;
    case "msg make" test_msg_make;
    case "msg forge" test_msg_forge;
    case "msg pp" test_msg_pp;
  ]
