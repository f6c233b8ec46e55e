(* Quickstart: one self-stabilizing Byzantine agreement among 7 nodes.

   Build a deterministic simulation (engine + bounded-delay network +
   drifting clocks), create 7 protocol nodes, have node 0 act as the General
   and propose a value, run, and print what every node decided.

     dune exec examples/quickstart.exe *)

module Sim = Ssba_sim
module Net = Ssba_net
module Core = Ssba_core

let () =
  let n = 7 in
  (* All protocol constants derive from n, f and the delay/drift bounds;
     [default] picks f = floor((n-1)/3) = 2 and millisecond-scale delays. *)
  let params = Core.Params.default n in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 2024 in
  (* Messages take between 5% and 100% of the delay bound delta. *)
  let delay =
    Net.Delay.uniform ~lo:(0.05 *. params.Core.Params.delta)
      ~hi:params.Core.Params.delta
  in
  let net = Net.Network.create ~engine ~n ~delay ~rng:(Sim.Rng.split rng) () in
  (* Each node gets its own hardware clock: rate within 1 +- rho, arbitrary
     offset — the protocol only ever measures local intervals. *)
  let nodes =
    Array.init n (fun id ->
        let clock =
          Sim.Clock.random (Sim.Rng.split rng) ~rho:params.Core.Params.rho
            ~max_offset:1.0
        in
        Core.Node.create_on ~id ~params ~clock ~engine
          ~link:(Net.Network.link net) ())
  in
  (* Node 0 is the General: broadcast (Initiator, 0, "launch"). *)
  (match Core.Node.propose nodes.(0) "launch" with
  | Ok () -> print_endline "node 0 proposes \"launch\""
  | Error e -> failwith (Core.Node.string_of_propose_error e));
  let _ = Sim.Engine.run ~until:1.0 engine in
  (* Every correct node returns (decides or aborts) within Delta_agr. *)
  Array.iter
    (fun node ->
      List.iter
        (fun (r : Core.Types.return_info) ->
          Fmt.pr "node %d: %a (at real time %.3f ms)@." r.Core.Types.node
            Core.Types.pp_outcome r.Core.Types.outcome
            (1000.0 *. r.Core.Types.rt_ret))
        (Core.Node.returns node))
    nodes
