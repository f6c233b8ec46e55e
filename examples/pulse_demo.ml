(* Synchronized pulses atop recurrent agreement.

   The paper points out (via its companion work [6]) that ss-Byz-Agree can
   drive a self-stabilizing pulse synchronization layer, which in turn makes
   arbitrary Byzantine algorithms self-stabilizing. The Ssba_pulse library
   implements that layer: rotating Generals propose cycle-numbered values,
   nodes fire a pulse whenever a cycle value is decided, and a timeout
   ladder skips Byzantine Generals.

   This demo runs 7 nodes, one of which is Byzantine-silent — its General
   turns are skipped by the ladder — and prints per-cycle pulse skews, which
   stay within the 3d decision skew the protocol guarantees.

     dune exec examples/pulse_demo.exe *)

module Sim = Ssba_sim
module Net = Ssba_net
module Core = Ssba_core
module Pulse = Ssba_pulse.Pulse_sync

let () =
  let n = 7 in
  let params = Core.Params.default n in
  let d = params.Core.Params.d in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 5150 in
  let delay =
    Net.Delay.uniform ~lo:(0.1 *. params.Core.Params.delta)
      ~hi:params.Core.Params.delta
  in
  let net = Net.Network.create ~engine ~n ~delay ~rng:(Sim.Rng.split rng) () in
  let byzantine = 3 in
  Net.Network.set_handler net byzantine (fun _ -> ());
  (* a silent slot *)
  let layers =
    List.init n (fun id -> id)
    |> List.filter_map (fun id ->
           if id = byzantine then None
           else begin
             let clock =
               Sim.Clock.random (Sim.Rng.split rng) ~rho:params.Core.Params.rho
                 ~max_offset:0.02
             in
             let node =
               Core.Node.create_on ~id ~params ~clock ~engine
                 ~link:(Net.Network.link net) ()
             in
             Some (Pulse.create ~node ~cycle_len:(1.3 *. Pulse.min_cycle params) ())
           end)
  in
  List.iter Pulse.start layers;
  let _ = Sim.Engine.run ~until:3.0 engine in
  let cycles =
    List.fold_left
      (fun acc layer ->
        List.fold_left (fun acc (p : Pulse.pulse) -> max acc p.Pulse.cycle) acc
          (Pulse.pulses layer))
      (-1) layers
  in
  Fmt.pr "node %d is Byzantine (silent); its General turns are skipped@.@." byzantine;
  for c = 0 to cycles do
    let rts =
      List.filter_map
        (fun layer ->
          List.find_opt (fun (p : Pulse.pulse) -> p.Pulse.cycle = c) (Pulse.pulses layer)
          |> Option.map (fun (p : Pulse.pulse) -> p.Pulse.rt))
        layers
    in
    match rts with
    | [] -> ()
    | first :: _ ->
        let span =
          List.fold_left Float.max first rts -. List.fold_left Float.min first rts
        in
        Fmt.pr "pulse %2d: fired at %d/%d nodes, skew %.2f d (bound 3d), General was node %d@."
          c (List.length rts) (n - 1) (span /. d)
          (c mod n)
  done
