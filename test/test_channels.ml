(* Tests for the concurrent-invocation extension (paper footnote 9):
   invocations by the same General differentiated by an index. Logical
   General ids are channel * n + physical; the Sending Validity Criteria
   (IG1/IG2/IG3) are per logical General. *)

open Helpers
open Ssba_core
module Engine = Ssba_sim.Engine

let mk ?(n = 7) ?(channels = 3) ?(seed = 51) () =
  let params = Params.default n in
  let engine = Engine.create () in
  let rng = Ssba_sim.Rng.create seed in
  let delay =
    Ssba_net.Delay.uniform ~lo:(0.05 *. params.Params.delta) ~hi:params.Params.delta
  in
  let net =
    Ssba_net.Network.create ~engine ~n ~delay ~rng:(Ssba_sim.Rng.split rng) ()
  in
  let returns = ref [] in
  let nodes =
    Array.init n (fun id ->
        let clock =
          Ssba_sim.Clock.random (Ssba_sim.Rng.split rng) ~rho:params.Params.rho
            ~max_offset:0.1
        in
        let node =
          Node.create_on ~channels ~id ~params ~clock ~engine
            ~link:(Ssba_net.Network.link net) ()
        in
        Node.subscribe node (fun r -> returns := r :: !returns);
        node)
  in
  (params, engine, nodes, returns)

let decided returns v =
  List.filter
    (fun (r : Types.return_info) -> r.Types.outcome = Types.Decided v)
    !returns

let test_concurrent_channels_same_general () =
  (* the same General runs three agreements at once, one per channel —
     exactly what IG1 forbids on a single channel *)
  let _, engine, nodes, returns = mk () in
  Engine.schedule engine ~at:0.05 (fun () ->
      check_bool "ch0" true (Node.propose ~channel:0 nodes.(0) "v0" = Ok ());
      check_bool "ch1" true (Node.propose ~channel:1 nodes.(0) "v1" = Ok ());
      check_bool "ch2" true (Node.propose ~channel:2 nodes.(0) "v2" = Ok ()));
  ignore (Engine.run ~until:1.0 engine);
  check_int "all decide v0" 7 (List.length (decided returns "v0"));
  check_int "all decide v1" 7 (List.length (decided returns "v1"));
  check_int "all decide v2" 7 (List.length (decided returns "v2"));
  (* logical General ids are distinct *)
  let gs =
    List.sort_uniq compare
      (List.map (fun (r : Types.return_info) -> r.Types.g) !returns)
  in
  check_bool "three distinct logical Generals" true (gs = [ 0; 7; 14 ])

let test_ig1_still_per_channel () =
  let params, engine, nodes, _ = mk () in
  Engine.schedule engine ~at:0.05 (fun () ->
      ignore (Node.propose ~channel:1 nodes.(2) "a"));
  Engine.schedule engine
    ~at:(0.05 +. (0.3 *. params.Params.delta_0))
    (fun () ->
      (* same channel too soon: refused *)
      (match Node.propose ~channel:1 nodes.(2) "b" with
      | Error (Node.Too_soon | Node.Busy) -> ()
      | Error e -> Alcotest.failf "unexpected %s" (Node.string_of_propose_error e)
      | Ok () -> Alcotest.fail "IG1 must apply within a channel");
      (* another channel right now: fine *)
      check_bool "other channel unaffected" true
        (Node.propose ~channel:2 nodes.(2) "b" = Ok ()));
  ignore (Engine.run ~until:1.0 engine)

let test_channel_out_of_range () =
  let _, _, nodes, _ = mk ~channels:2 () in
  (match Node.propose ~channel:2 nodes.(0) "v" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range channel accepted");
  match Node.propose ~channel:(-1) nodes.(0) "v" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative channel accepted"

let test_forged_logical_initiator () =
  let params = Params.default 7 in
  let engine = Engine.create () in
  let rng = Ssba_sim.Rng.create 3 in
  let net =
    Ssba_net.Network.create ~engine ~n:7
      ~delay:(Ssba_net.Delay.fixed 0.0001)
      ~rng ()
  in
  let returns = ref [] in
  for id = 0 to 6 do
    let node =
      Node.create_on ~channels:2 ~id ~params ~clock:Ssba_sim.Clock.perfect
        ~engine ~link:(Ssba_net.Network.link net) ()
    in
    Node.subscribe node (fun r -> returns := r :: !returns)
  done;
  (* node 3 sends an Initiator for logical G = 9 (owned by node 2) *)
  Engine.schedule engine ~at:0.05 (fun () ->
      Ssba_net.Network.broadcast net ~src:3 (Types.Initiator { g = 9; v = "forged" }));
  (* and an Initiator beyond the logical range *)
  Engine.schedule engine ~at:0.05 (fun () ->
      Ssba_net.Network.broadcast net ~src:3 (Types.Initiator { g = 14; v = "oob" }));
  ignore (Engine.run ~until:0.5 engine);
  check_int "forged/oob logical initiations ignored" 0 (List.length !returns)

let test_default_single_channel_unchanged () =
  (* channels default to 1: the logical id equals the physical id *)
  let c = Cluster.make ~n:7 () in
  Engine.schedule c.Cluster.engine ~at:0.05 (fun () ->
      ignore (Node.propose (Cluster.node c 0) "v"));
  Cluster.run c;
  List.iter
    (fun (r : Types.return_info) -> check_int "logical = physical" 0 r.Types.g)
    (Cluster.returns c)

let test_cross_channel_isolation () =
  (* a running agreement on channel 0 does not disturb channel 1's values or
     vice versa: different logical ids, different Initiator-Accept state *)
  let _, engine, nodes, returns = mk ~channels:2 () in
  Engine.schedule engine ~at:0.05 (fun () ->
      ignore (Node.propose ~channel:0 nodes.(1) "left");
      ignore (Node.propose ~channel:1 nodes.(1) "right"));
  ignore (Engine.run ~until:1.0 engine);
  check_int "left decided by all" 7 (List.length (decided returns "left"));
  check_int "right decided by all" 7 (List.length (decided returns "right"));
  List.iter
    (fun (r : Types.return_info) ->
      match r.Types.outcome with
      | Types.Decided "left" -> check_int "left on logical 1" 1 r.Types.g
      | Types.Decided "right" -> check_int "right on logical 8" 8 r.Types.g
      | _ -> ())
    !returns

let suite =
  [
    case "concurrent channels, same General" test_concurrent_channels_same_general;
    case "IG1 per channel" test_ig1_still_per_channel;
    case "channel out of range" test_channel_out_of_range;
    case "forged logical Initiator ignored" test_forged_logical_initiator;
    case "default single channel unchanged" test_default_single_channel_unchanged;
    case "cross-channel isolation" test_cross_channel_isolation;
  ]
