(* Self-stabilization / convergence tests (Corollary 5): from randomized
   arbitrary states, once the environment is coherent for Delta_stb, the
   protocol works and keeps its properties. *)

open Helpers
open Ssba_core
module H = Ssba_harness

let values = [ "x"; "y"; "z"; "m" ]

let scrambled_scenario ~seed ~propose_frac ?(cast = []) ?(g = 0) () =
  let params = Params.default 7 in
  let t_p = propose_frac *. params.Params.delta_stb in
  H.Scenario.default ~name:"conv" ~seed ~cast
    ~events:[ H.Scenario.Scramble { at = 0.0; values; net_garbage = 150 } ]
    ~proposals:[ { H.Scenario.g; v = "m"; at = t_p } ]
    ~horizon:(t_p +. (3.0 *. params.Params.delta_agr))
    params

(* Corollary 5, quantified: for any seed, a proposal after Delta_stb decides
   unanimously. *)
let prop_convergence_by_dstb =
  QCheck.Test.make ~name:"proposal at Delta_stb decides (Cor. 5)" ~count:25
    QCheck.(pair (int_range 0 10_000) (int_range 0 6))
    (fun (seed, g) ->
      let sc = scrambled_scenario ~seed ~propose_frac:1.0 ~g () in
      let params = sc.H.Scenario.params in
      let res = H.Runner.run sc in
      let post =
        List.filter
          (fun (e : H.Metrics.episode) ->
            H.Metrics.first_return e >= params.Params.delta_stb)
          (H.Metrics.episodes res)
      in
      List.exists
        (fun e -> H.Checks.validity ~correct:res.H.Runner.correct ~v:"m" e)
        post)

(* Safety after stabilization: pre-stabilization the theory allows anything —
   scrambled memory can hold forged quorums and produce briefly divergent
   returns (we have observed this, e.g. seed 9742 with Byzantine company) —
   but once Delta_stb has passed, no violation may appear. *)
let prop_no_divergence_after_stabilization =
  QCheck.Test.make ~name:"no divergence after Delta_stb" ~count:25
    QCheck.(pair (int_range 0 10_000) (int_range 1 10))
    (fun (seed, tenths) ->
      let sc =
        scrambled_scenario ~seed ~propose_frac:(0.1 *. float_of_int tenths) ()
      in
      let params = sc.H.Scenario.params in
      let res = H.Runner.run sc in
      H.Checks.pairwise_agreement ~after:params.Params.delta_stb res = [])

(* Convergence with live Byzantine nodes: scramble + f permanent adversaries;
   post-stabilization proposals by a correct General still decide. *)
let prop_convergence_with_byzantine =
  QCheck.Test.make ~name:"convergence despite f live Byzantine nodes" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let params = Params.default 7 in
      let cast =
        [
          (5, Ssba_adversary.Catalog.Spam { period_d = 5.0; values });
          (6, Ssba_adversary.Catalog.Equivocator { v1 = "x"; v2 = "y" });
        ]
      in
      let sc = scrambled_scenario ~seed ~propose_frac:1.0 ~cast ~g:0 () in
      let res = H.Runner.run sc in
      H.Checks.pairwise_agreement ~after:params.Params.delta_stb res = []
      &&
      let post =
        List.filter
          (fun (e : H.Metrics.episode) ->
            H.Metrics.first_return e >= params.Params.delta_stb
            && e.H.Metrics.g = 0)
          (H.Metrics.episodes res)
      in
      List.exists
        (fun (e : H.Metrics.episode) ->
          List.exists
            (fun (r : Types.return_info) -> r.Types.outcome = Types.Decided "m")
            e.H.Metrics.returns)
        post)

let test_incoherent_network_then_recovery () =
  (* the full §2 story: drops + partition + scrambled state, then the
     network heals, and after Delta_stb agreement works *)
  let params = Params.default 7 in
  let t_heal = 0.1 in
  let t_p = t_heal +. params.Params.delta_stb in
  let sc =
    H.Scenario.default ~name:"incoherent" ~seed:77
      ~events:
        [
          H.Scenario.Scramble { at = 0.0; values; net_garbage = 300 };
          H.Scenario.Drop_prob { at = 0.0; p = 0.5 };
          H.Scenario.Partition { at = 0.0; blocked = ([ 0; 1; 2 ], [ 3; 4; 5; 6 ]) };
          H.Scenario.Heal { at = t_heal };
        ]
      ~proposals:[ { H.Scenario.g = 3; v = "m"; at = t_p } ]
      ~horizon:(t_p +. (3.0 *. params.Params.delta_agr))
      (Params.default 7)
  in
  let res = H.Runner.run sc in
  check_bool "agreement holds after stabilization" true
    (H.Checks.pairwise_agreement ~after:(t_heal +. params.Params.delta_stb) res = []);
  let post =
    List.filter
      (fun (e : H.Metrics.episode) -> H.Metrics.first_return e >= t_p)
      (H.Metrics.episodes res)
  in
  check_bool "post-heal proposal decides" true
    (List.exists
       (fun e -> H.Checks.validity ~correct:res.H.Runner.correct ~v:"m" e)
       post)

let test_repeated_scrambles () =
  (* several transient faults in a row; the last one is followed by quiet
     and a successful agreement *)
  let params = Params.default 7 in
  let dstb = params.Params.delta_stb in
  let sc =
    H.Scenario.default ~name:"repeat" ~seed:78
      ~events:
        [
          H.Scenario.Scramble { at = 0.0; values; net_garbage = 100 };
          H.Scenario.Scramble { at = 0.2 *. dstb; values; net_garbage = 100 };
          H.Scenario.Scramble { at = 0.4 *. dstb; values; net_garbage = 100 };
        ]
      ~proposals:[ { H.Scenario.g = 2; v = "m"; at = (0.4 +. 1.0) *. dstb } ]
      ~horizon:((0.4 +. 1.0) *. dstb +. (3.0 *. params.Params.delta_agr))
      params
  in
  let res = H.Runner.run sc in
  check_bool "agreement after the last scramble + Dstb" true
    (List.exists
       (fun (e : H.Metrics.episode) ->
         H.Metrics.first_return e >= 1.2 *. dstb
         && H.Checks.validity ~correct:res.H.Runner.correct ~v:"m" e)
       (H.Metrics.episodes res))

let suite =
  [
    Helpers.qcheck prop_convergence_by_dstb;
    Helpers.qcheck prop_no_divergence_after_stabilization;
    Helpers.qcheck prop_convergence_with_byzantine;
    case "incoherent network then recovery" test_incoherent_network_then_recovery;
    case "repeated scrambles" test_repeated_scrambles;
  ]
