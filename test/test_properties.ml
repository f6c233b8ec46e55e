(* Property-based test suites: the paper's theorems quantified over random
   scenarios (sizes, seeds, delay profiles, Byzantine casts). Each case runs
   a full simulation, so counts are modest but the space covered is wide. *)

let () = () (* no Helpers needed: qcheck-only module *)
open Ssba_core
module H = Ssba_harness
module C = Ssba_adversary.Catalog

let sizes = [| 4; 7; 10; 13 |]

let delay_of_profile params = function
  | 0 -> Ssba_net.Delay.fixed (0.9 *. params.Params.delta)
  | 1 -> Ssba_net.Delay.fixed (0.05 *. params.Params.delta)
  | 2 ->
      Ssba_net.Delay.uniform ~lo:(0.05 *. params.Params.delta)
        ~hi:params.Params.delta
  | _ ->
      Ssba_net.Delay.bimodal ~fast:(0.1 *. params.Params.delta)
        ~slow:params.Params.delta ~slow_prob:0.2

(* Theorem 3 Validity + Timeliness, quantified: any size, any delay profile
   within the bound, any correct General, f crash-faulty nodes. *)
let prop_validity =
  QCheck.Test.make ~name:"validity for all sizes/delays/Generals" ~count:40
    QCheck.(triple (int_range 0 1000) (int_range 0 3) (int_range 0 100))
    (fun (seed, profile, gpick) ->
      let n = sizes.(seed mod Array.length sizes) in
      let params = Params.default n in
      let f = params.Params.f in
      let g = gpick mod (n - f) in
      let cast = List.init f (fun i -> (n - 1 - i, C.Silent)) in
      let sc =
        H.Scenario.default ~name:"prop" ~seed ~cast
          ~delay:(delay_of_profile params profile)
          ~proposals:[ { H.Scenario.g; v = "v"; at = 0.05 } ]
          ~horizon:(0.05 +. (3.0 *. params.Params.delta_agr))
          params
      in
      let res = H.Runner.run sc in
      match H.Metrics.episodes res with
      | [ e ] ->
          H.Checks.validity ~correct:res.H.Runner.correct ~v:"v" e
          && (H.Checks.timeliness_1a res e).H.Checks.ok
          && (H.Checks.timeliness_1b res e).H.Checks.ok
          && (H.Checks.timeliness_1d res e).H.Checks.ok
      | _ -> false)

(* Agreement under arbitrary Byzantine casts: up to f adversaries drawn from
   the strategy zoo, with or without a correct proposal in flight. *)
let strategy_of i : C.t =
  match i mod 6 with
  | 0 -> Silent
  | 1 -> Spam { period_d = 5.0; values = [ "a"; "b" ] }
  | 2 -> Mimic { delay_d = 2.0 }
  | 3 -> Equivocator { v1 = "a"; v2 = "b" }
  | 4 -> Two_faced_general { v1 = "a"; v2 = "b"; at = 0.05 }
  | _ -> Flip_flop { period_d = 20.0; values = [ "a" ] }

let prop_agreement_under_byzantine =
  QCheck.Test.make ~name:"pairwise agreement under random Byzantine casts"
    ~count:40
    QCheck.(quad (int_range 0 1000) (int_range 0 100) (list_of_size Gen.(int_range 0 3) (int_range 0 5)) bool)
    (fun (seed, gpick, casts, with_proposal) ->
      let n = sizes.(seed mod Array.length sizes) in
      let params = Params.default n in
      let f = params.Params.f in
      let casts = List.filteri (fun i _ -> i < f) casts in
      let cast = List.mapi (fun i c -> (n - 1 - i, strategy_of c)) casts in
      let byz_ids = List.map fst cast in
      let proposals =
        if with_proposal then
          let g = gpick mod n in
          if List.mem g byz_ids then [] else [ { H.Scenario.g; v = "v"; at = 0.05 } ]
        else []
      in
      let sc =
        H.Scenario.default ~name:"prop" ~seed ~cast ~proposals
          ~horizon:(0.05 +. (4.0 *. params.Params.delta_agr))
          params
      in
      let res = H.Runner.run sc in
      H.Checks.pairwise_agreement res = [])

(* Termination: every return happens within Delta_agr of its anchor, for any
   scenario in the space above. *)
let prop_termination =
  QCheck.Test.make ~name:"running time <= Delta_agr for every return" ~count:30
    QCheck.(pair (int_range 0 1000) (int_range 0 5))
    (fun (seed, cast) ->
      let n = sizes.(seed mod Array.length sizes) in
      let params = Params.default n in
      let cast = if params.Params.f > 0 then [ (n - 1, strategy_of cast) ] else [] in
      let sc =
        H.Scenario.default ~name:"prop" ~seed ~cast
          ~proposals:[ { H.Scenario.g = 0; v = "v"; at = 0.05 } ]
          ~horizon:(0.05 +. (4.0 *. params.Params.delta_agr))
          params
      in
      let res = H.Runner.run sc in
      List.for_all
        (fun (r : Types.return_info) ->
          r.Types.tau_ret -. r.Types.tau_g
          <= params.Params.delta_agr +. params.Params.d)
        res.H.Runner.returns)

(* Determinism of the whole stack: a scenario is a pure function of its
   description. *)
let prop_determinism =
  QCheck.Test.make ~name:"runs are pure functions of the scenario" ~count:10
    QCheck.(int_range 0 1000)
    (fun seed ->
      let params = Params.default 7 in
      let mk () =
        let sc =
          H.Scenario.default ~name:"prop" ~seed
            ~proposals:[ { H.Scenario.g = seed mod 7; v = "v"; at = 0.05 } ]
            ~horizon:0.5 params
        in
        let res = H.Runner.run sc in
        ( List.map
            (fun (r : Types.return_info) ->
              (r.Types.node, r.Types.outcome, r.Types.rt_ret, r.Types.tau_g))
            res.H.Runner.returns,
          res.H.Runner.messages_sent )
      in
      mk () = mk ())

(* Unforgeability at the system level: without any initiation (correct or
   Byzantine-General), no value is ever decided. *)
let prop_unforgeability =
  QCheck.Test.make ~name:"no initiation, no decision" ~count:20
    QCheck.(pair (int_range 0 1000) (int_range 0 2))
    (fun (seed, cast) ->
      let n = sizes.(seed mod Array.length sizes) in
      let params = Params.default n in
      (* adversaries that never send an Initiator under their own id *)
      let strategy : C.t =
        match cast with
        | 0 -> Silent
        | 1 -> Equivocator { v1 = "a"; v2 = "b" }
        | _ -> Mimic { delay_d = 1.0 }
      in
      let cast = if params.Params.f > 0 then [ (n - 1, strategy) ] else [] in
      let sc =
        H.Scenario.default ~name:"prop" ~seed ~cast ~proposals:[]
          ~horizon:(2.0 *. params.Params.delta_agr)
          params
      in
      let res = H.Runner.run sc in
      H.Checks.no_decision res)

let suite =
  [
    Helpers.qcheck prop_validity;
    Helpers.qcheck prop_agreement_under_byzantine;
    Helpers.qcheck prop_termination;
    Helpers.qcheck prop_determinism;
    Helpers.qcheck prop_unforgeability;
  ]
