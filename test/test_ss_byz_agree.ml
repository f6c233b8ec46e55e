(* Integration tests for the full ss-Byz-Agree protocol (paper Figure 1),
   run on the real simulator via the Cluster helper. *)

open Helpers
open Ssba_core
module Engine = Ssba_sim.Engine
module Net = Ssba_net.Network

let propose (c : Cluster.t) ~g ~v ~at =
  Engine.schedule c.Cluster.engine ~at (fun () ->
      match Node.propose (Cluster.node c g) v with
      | Ok () -> ()
      | Error e -> Alcotest.failf "propose refused: %s" (Node.string_of_propose_error e))

let test_validity () =
  let c = Cluster.make ~n:7 () in
  propose c ~g:0 ~v:"v" ~at:0.05;
  Cluster.run c;
  let rets = Cluster.returns c in
  check_int "all 7 nodes return" 7 (List.length rets);
  List.iter
    (fun (r : Types.return_info) ->
      check_bool "decided the General's value" true
        (r.Types.outcome = Types.Decided "v"))
    rets

let test_validity_under_crashes () =
  (* f = 2 crashed from the start: the remaining n - f = 5 still decide *)
  let c = Cluster.make ~n:7 ~skip:[ 5; 6 ] () in
  propose c ~g:0 ~v:"v" ~at:0.05;
  Cluster.run c;
  check_int "5 correct nodes decide" 5 (List.length (Cluster.decided_values c))

let test_no_progress_beyond_f_crashes () =
  (* with f + 1 = 3 crashes the support quorum n - f = 5 is unreachable:
     nobody can decide (and nobody returns at all) *)
  let c = Cluster.make ~n:7 ~skip:[ 4; 5; 6 ] () in
  propose c ~g:0 ~v:"v" ~at:0.05;
  Cluster.run c;
  check_int "no returns" 0 (List.length (Cluster.returns c))

let test_fast_path_round_zero () =
  (* fixed tiny delay: everyone decides via block R, within ~4 hops *)
  let c = Cluster.make ~n:7 ~delay:(`Fixed 0.0001) ~clock:`Perfect () in
  propose c ~g:0 ~v:"v" ~at:0.05;
  Cluster.run c;
  List.iter
    (fun (r : Types.return_info) ->
      check_bool "decision well inside 4d of the anchor" true
        (r.Types.tau_ret -. r.Types.tau_g <= 4.0 *. c.Cluster.params.Params.d))
    (Cluster.returns c);
  check_int "all decide" 7 (List.length (Cluster.decided_values c))

let test_decision_skew_bound () =
  let c = Cluster.make ~n:10 ~seed:5 () in
  propose c ~g:3 ~v:"v" ~at:0.05;
  Cluster.run c;
  let rts = List.map (fun (r : Types.return_info) -> r.Types.rt_ret) (Cluster.returns c) in
  let span = List.fold_left Float.max (List.hd rts) rts -. List.fold_left Float.min (List.hd rts) rts in
  check_bool "decision skew <= 3d (Timeliness 1a)" true
    (span <= 3.0 *. c.Cluster.params.Params.d +. 1e-9)

let test_anchor_before_return () =
  let c = Cluster.make ~n:7 ~seed:9 () in
  propose c ~g:1 ~v:"v" ~at:0.05;
  Cluster.run c;
  List.iter
    (fun (r : Types.return_info) ->
      check_bool "tau_g <= tau_ret (Timeliness 1d)" true (r.Types.tau_g <= r.Types.tau_ret);
      check_bool "running time <= Dagr" true
        (r.Types.tau_ret -. r.Types.tau_g <= c.Cluster.params.Params.delta_agr))
    (Cluster.returns c)

let test_instance_resets_after_agreement () =
  let c = Cluster.make ~n:7 () in
  propose c ~g:0 ~v:"first" ~at:0.05;
  (* beyond Delta_0 so IG1 allows, and instance must be Idle again *)
  propose c ~g:0 ~v:"second" ~at:(0.05 +. (2.0 *. c.Cluster.params.Params.delta_0));
  Cluster.run c;
  let decided = Cluster.decided_values c in
  check_int "both agreements decided by all" 14 (List.length decided);
  check_int "7 decided first" 7
    (List.length (List.filter (String.equal "first") decided));
  check_int "7 decided second" 7
    (List.length (List.filter (String.equal "second") decided))

let test_concurrent_generals () =
  (* two different Generals initiate close together: separate instances,
     both decide *)
  let c = Cluster.make ~n:10 () in
  propose c ~g:0 ~v:"a" ~at:0.05;
  propose c ~g:1 ~v:"b" ~at:0.0505;
  Cluster.run c;
  let by_value v =
    List.length (List.filter (String.equal v) (Cluster.decided_values c))
  in
  check_int "all decide G=0's value" 10 (by_value "a");
  check_int "all decide G=1's value" 10 (by_value "b")

let test_matching_block_s () =
  (* Direct unit test of the round-matching used by block S: a Byzantine
     broadcaster appearing in two rounds must not satisfy r = 2 alone, but a
     system of distinct representatives must. Exercised via the primitive's
     accept callback plumbing on a fake context. *)
  let params = Params.default 7 in
  let fake, ctx = Fake.make params in
  ignore fake;
  let agree = Ss_byz_agree.create ~ctx ~g:6 () in
  (* drive the instance by hand: anchor via the Initiator-Accept of value m *)
  let ia = Ss_byz_agree.initiator_accept agree in
  List.iter
    (fun s -> Initiator_accept.handle_message ia ~kind:Types.Support ~sender:s ~v:"m")
    [ 0; 1; 2; 3; 4 ];
  Fake.advance fake (5.0 *. params.Params.d);
  List.iter
    (fun s -> Initiator_accept.handle_message ia ~kind:Types.Approve ~sender:s ~v:"m")
    [ 0; 1; 2; 3; 4 ];
  Fake.advance fake (0.2 *. params.Params.d);
  List.iter
    (fun s -> Initiator_accept.handle_message ia ~kind:Types.Ready ~sender:s ~v:"m")
    [ 0; 1; 2; 3; 4 ];
  (* the anchor is ~7d in the past now, so block R (<= 4d) must NOT fire *)
  check_bool "still running (R missed)" true
    (Ss_byz_agree.state agree = Ss_byz_agree.Running);
  let mb = Ss_byz_agree.msgd_broadcast agree in
  let accept_round ~p ~k =
    (* block Z is untimed, so echo' quorums make (p, m, k) accepted even
       past its X deadline *)
    List.iter
      (fun s -> Msgd_broadcast.handle_message mb ~sender:s ~kind:Types.Echo2 ~p ~v:"m" ~k)
      [ 0; 1; 2; 3; 4 ]
  in
  (* move past S(1)'s deadline (tau_g + 3 Phi) so a round-1 accept alone can
     no longer decide; the anchor is ~2d before the supports *)
  Fake.advance fake (3.2 *. params.Params.phi);
  accept_round ~p:3 ~k:1;
  check_bool "round-1 accept past its deadline does not decide" true
    (Ss_byz_agree.state agree = Ss_byz_agree.Running);
  (* Byzantine node 3 also shows up in round 2: rounds {1,2} cannot be
     matched to distinct broadcasters *)
  accept_round ~p:3 ~k:2;
  check_bool "single node in two rounds does not satisfy r=2" true
    (Ss_byz_agree.state agree = Ss_byz_agree.Running);
  (* a distinct node for round 2 completes the system of representatives *)
  accept_round ~p:4 ~k:2;
  (match Ss_byz_agree.state agree with
  | Ss_byz_agree.Returned (Types.Decided v, _) -> check_str "decided m" "m" v
  | _ -> Alcotest.fail "expected a decision through block S")

(* --- block R gate boundary pins ----------------------------------------- *)

(* Drive a hand-fed instance to its I-accept with an exact [tau - tau_g].
   Power-of-two parameters (d = 0.125, rho = 0) make every timestamp and
   every gate multiple exact in floating point, so "exactly 4d" means
   exactly, not within an ulp. The anchor comes from L1's recording rule:
   five simultaneous supports give tau_g = support time - 2d, so delivering
   the ready quorum at support time + (gap - 2)d lands the accept at
   tau_g + gap*d on the nose. *)
let gate_params r_slack =
  Params.with_r_slack (Params.default ~delta:0.125 ~pi:0.0 ~rho:0.0 7) r_slack

let drive_accept ~params ~gap_in_d =
  let fake, ctx = Fake.make params in
  let agree = Ss_byz_agree.create ~ctx ~g:6 () in
  let ia = Ss_byz_agree.initiator_accept agree in
  let d = params.Params.d in
  let quorum kind =
    List.iter
      (fun s -> Initiator_accept.handle_message ia ~kind ~sender:s ~v:"m")
      [ 0; 1; 2; 3; 4 ]
  in
  quorum Types.Support;
  Fake.advance fake d;
  quorum Types.Approve;
  Fake.advance fake ((gap_in_d -. 3.0) *. d);
  quorum Types.Ready;
  (fake, agree)

let decided agree =
  match Ss_byz_agree.state agree with
  | Ss_byz_agree.Returned (Types.Decided v, _) -> Some v
  | Ss_byz_agree.Idle | Ss_byz_agree.Running
  | Ss_byz_agree.Returned (Types.Aborted, _) ->
      None

(* The gate comparison is <=, not <: an accept exactly ON the boundary takes
   the fast path; one ulp past it does not. Pinned for both the legacy 4d
   gate and the widen 5d default — if either flips to strict-less-than, the
   knife-edge slack argument (EXPERIMENTS E15) no longer matches the code. *)
let test_block_r_gate_boundaries () =
  let case ~r_slack ~gap_in_d expect =
    let _, agree = drive_accept ~params:(gate_params r_slack) ~gap_in_d in
    check_bool
      (Printf.sprintf "%s gate at gap %gd"
         (Params.r_slack_to_string r_slack)
         gap_in_d)
      expect
      (decided agree = Some "m")
  in
  (* legacy: <= 4d decides in round 0; anything past it does not *)
  case ~r_slack:Params.Legacy ~gap_in_d:4.0 true;
  case ~r_slack:Params.Legacy ~gap_in_d:4.125 false;
  case ~r_slack:Params.Legacy ~gap_in_d:5.0 false;
  (* widen (the default): the gate moved to <= 5d, covered by [IA-1D] *)
  case ~r_slack:Params.Widen ~gap_in_d:4.0 true;
  case ~r_slack:Params.Widen ~gap_in_d:5.0 true;
  case ~r_slack:Params.Widen ~gap_in_d:5.125 false

(* Block S excludes the General: a node stranded one ulp past the 5d gate is
   not rescued by the General's own round-1 broadcast of the value it
   I-accepted. *)
let test_block_s_excludes_general () =
  let _, agree =
    drive_accept ~params:(gate_params Params.Widen) ~gap_in_d:5.125
  in
  let mb = Ss_byz_agree.msgd_broadcast agree in
  List.iter
    (fun s ->
      Msgd_broadcast.handle_message mb ~sender:s ~kind:Types.Echo2 ~p:6 ~v:"m"
        ~k:1)
    [ 0; 1; 2; 3; 4 ];
  check_bool "the General's broadcast is no block-S proof" true
    (Ss_byz_agree.state agree = Ss_byz_agree.Running)

let test_termination_u_block () =
  (* anchor with no broadcasts at all: block T or U must abort within
     Delta_agr *)
  let params = Params.default 7 in
  let fake, ctx = Fake.make params in
  let agree = Ss_byz_agree.create ~ctx ~g:6 () in
  let returned = ref None in
  Ss_byz_agree.set_on_return agree (fun outcome ~tau_g:_ ~tau_ret ->
      returned := Some (outcome, tau_ret));
  let ia = Ss_byz_agree.initiator_accept agree in
  List.iter
    (fun s -> Initiator_accept.handle_message ia ~kind:Types.Support ~sender:s ~v:"m")
    [ 0; 1; 2; 3; 4 ];
  Fake.advance fake (5.0 *. params.Params.d);
  List.iter
    (fun s -> Initiator_accept.handle_message ia ~kind:Types.Approve ~sender:s ~v:"m")
    [ 0; 1; 2; 3; 4 ];
  List.iter
    (fun s -> Initiator_accept.handle_message ia ~kind:Types.Ready ~sender:s ~v:"m")
    [ 0; 1; 2; 3; 4 ];
  check_bool "running" true (Ss_byz_agree.state agree = Ss_byz_agree.Running);
  let anchored_at = fake.Fake.now in
  Fake.advance fake params.Params.delta_agr;
  (match !returned with
  | Some (Types.Aborted, tau_ret) ->
      check_bool "aborted within Dagr of the anchor" true
        (tau_ret -. anchored_at <= params.Params.delta_agr)
  | Some (Types.Decided _, _) -> Alcotest.fail "decided out of nowhere"
  | None -> Alcotest.fail "T/U blocks did not abort");
  (* and 3d later the instance has reset to Idle, ready for reuse *)
  check_bool "instance reset after the return" true
    (Ss_byz_agree.state agree = Ss_byz_agree.Idle)

let test_cleanup_repairs_corrupt_running_state () =
  let params = Params.default 7 in
  let fake, ctx = Fake.make params in
  let agree = Ss_byz_agree.create ~ctx ~g:3 () in
  let rng = Ssba_sim.Rng.create 17 in
  Ss_byz_agree.scramble rng ~values:[ "x"; "y" ] agree;
  (* periodic cleanup over a stabilization period must drive the instance
     back to Idle, whatever the scramble produced *)
  for _ = 1 to int_of_float (params.Params.delta_stb /. params.Params.d) do
    Fake.advance fake params.Params.d;
    Ss_byz_agree.cleanup agree
  done;
  check_bool "instance repaired to Idle" true (Ss_byz_agree.state agree = Ss_byz_agree.Idle)

let suite =
  [
    case "validity" test_validity;
    case "validity under f crashes" test_validity_under_crashes;
    case "no progress beyond f crashes" test_no_progress_beyond_f_crashes;
    case "fast path (block R)" test_fast_path_round_zero;
    case "decision skew" test_decision_skew_bound;
    case "anchor/running-time bounds" test_anchor_before_return;
    case "instance resets (recurrent)" test_instance_resets_after_agreement;
    case "concurrent Generals" test_concurrent_generals;
    case "block S round matching" test_matching_block_s;
    case "block R gate boundaries (4d/5d, <= not <)" test_block_r_gate_boundaries;
    case "block S excludes the General" test_block_s_excludes_general;
    case "block U aborts" test_termination_u_block;
    case "cleanup repairs scrambled state" test_cleanup_repairs_corrupt_running_state;
  ]
