(* Recurrent agreements by rotating Generals.

   The protocol supports an unbounded stream of agreements: any node may act
   as General, subject to the Sending Validity Criteria the node glue
   enforces — IG1 (at least Delta_0 between initiations by the same General),
   IG2 (at least Delta_v between initiations of the same value) and IG3 (a
   Delta_reset quiet period after a noticed failure).

   Here five Generals take turns proposing configuration updates; one node
   crashes halfway through and later recovers, demonstrating that the stream
   keeps flowing as long as at most f nodes are out at a time.

     dune exec examples/recurrent_agreement.exe *)

module Sim = Ssba_sim
module Net = Ssba_net
module Core = Ssba_core

let () =
  let n = 7 in
  let params = Core.Params.default n in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 99 in
  let delay =
    Net.Delay.uniform ~lo:(0.1 *. params.Core.Params.delta)
      ~hi:params.Core.Params.delta
  in
  let net = Net.Network.create ~engine ~n ~delay ~rng:(Sim.Rng.split rng) () in
  let decided : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let nodes =
    Array.init n (fun id ->
        let clock =
          Sim.Clock.random (Sim.Rng.split rng) ~rho:params.Core.Params.rho
            ~max_offset:0.5
        in
        let node =
          Core.Node.create_on ~id ~params ~clock ~engine
            ~link:(Net.Network.link net) ()
        in
        Core.Node.subscribe node (fun r ->
            match r.Core.Types.outcome with
            | Core.Types.Decided v ->
                Hashtbl.replace decided v
                  (1 + Option.value ~default:0 (Hashtbl.find_opt decided v))
            | Core.Types.Aborted -> ());
        node)
  in
  (* Ten updates, proposed by Generals 0..4 in turn, spaced beyond IG1. *)
  let spacing = 2.0 *. params.Core.Params.delta_0 in
  for i = 0 to 9 do
    let g = i mod 5 in
    let at = 0.05 +. (float_of_int i *. spacing) in
    Sim.Engine.schedule engine ~at (fun () ->
        match Core.Node.propose nodes.(g) (Printf.sprintf "update-%d" i) with
        | Ok () -> Fmt.pr "[%.3f] node %d proposes update-%d@." at g i
        | Error e ->
            Fmt.pr "[%.3f] node %d refused: %s@." at g
              (Core.Node.string_of_propose_error e))
  done;
  (* Node 6 crashes during updates 3-6 and then recovers. *)
  Sim.Engine.schedule engine ~at:(0.05 +. (3.0 *. spacing)) (fun () ->
      Fmt.pr "[crash] node 6 goes silent@.";
      Net.Network.set_muted net 6 true);
  Sim.Engine.schedule engine ~at:(0.05 +. (7.0 *. spacing)) (fun () ->
      Fmt.pr "[recover] node 6 is back@.";
      Net.Network.set_muted net 6 false);
  let _ = Sim.Engine.run ~until:(0.05 +. (12.0 *. spacing)) engine in
  Fmt.pr "@.decisions per value (out of %d nodes):@." n;
  Hashtbl.fold (fun v c acc -> (v, c) :: acc) decided []
  |> List.sort compare
  |> List.iter (fun (v, c) -> Fmt.pr "  %-10s decided by %d node(s)@." v c)
