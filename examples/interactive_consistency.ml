(* Interactive consistency: every node learns every node's private value.

   This is the original motivation of Pease, Shostak & Lamport's agreement
   problem (the paper's [13]): n processes each hold a private value and must
   agree on the full vector, despite Byzantine members. With a Byzantine
   agreement primitive the construction is immediate — run one agreement per
   node, with that node as General — and ss-Byz-Agree supports exactly this
   "different Generals" mode (§3).

   Here 7 nodes each propose a private sensor reading; one node is Byzantine
   and sends different readings to different halves (two-faced). The runs for
   correct Generals all decide, and the Byzantine General's slot resolves
   consistently at every correct node (here: no quorum forms, so every
   correct node records "no value"), yielding identical vectors.

     dune exec examples/interactive_consistency.exe *)

module Sim = Ssba_sim
module Net = Ssba_net
module Core = Ssba_core
module Catalog = Ssba_adversary.Catalog

let () =
  let n = 7 in
  let byzantine = 4 in
  let params = Core.Params.default n in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 31 in
  let delay =
    Net.Delay.uniform ~lo:(0.1 *. params.Core.Params.delta)
      ~hi:params.Core.Params.delta
  in
  let net = Net.Network.create ~engine ~n ~delay ~rng:(Sim.Rng.split rng) () in
  (* vectors.(i) collects node i's learned (general, value) pairs *)
  let vectors = Array.make n [] in
  let nodes =
    Array.init n (fun id ->
        if id = byzantine then None
        else begin
          let clock =
            Sim.Clock.random (Sim.Rng.split rng) ~rho:params.Core.Params.rho
              ~max_offset:0.1
          in
          let node =
            Core.Node.create_on ~id ~params ~clock ~engine
              ~link:(Net.Network.link net) ()
          in
          Core.Node.subscribe node (fun r ->
              match r.Core.Types.outcome with
              | Core.Types.Decided v ->
                  vectors.(id) <- (r.Core.Types.g, v) :: vectors.(id)
              | Core.Types.Aborted -> ());
          Some node
        end)
  in
  (* Each correct node proposes its private reading; concurrent agreements by
     different Generals are independent instances, so they can overlap. *)
  Array.iteri
    (fun id node ->
      match node with
      | Some node ->
          let at = 0.02 +. (0.002 *. float_of_int id) in
          Sim.Engine.schedule engine ~at (fun () ->
              ignore (Core.Node.propose node (Printf.sprintf "reading-%d" id)))
      | None -> ())
    nodes;
  (* The Byzantine node equivocates its own "reading". *)
  Catalog.install ~d:params.Core.Params.d
    (Catalog.Two_faced_general
       { v1 = "reading-FAKE-A"; v2 = "reading-FAKE-B"; at = 0.021 })
    {
      Catalog.self = byzantine;
      params;
      engine;
      rng = Sim.Rng.split rng;
      link = Net.Network.link net;
    };
  let _ = Sim.Engine.run ~until:1.0 engine in
  (* Print and compare the learned vectors. *)
  let render id =
    List.init n (fun g ->
        match List.assoc_opt g (List.rev vectors.(id)) with
        | Some v -> Printf.sprintf "%d:%s" g v
        | None -> Printf.sprintf "%d:<none>" g)
    |> String.concat "  "
  in
  let reference = ref None in
  Array.iteri
    (fun id node ->
      match node with
      | None -> Fmt.pr "node %d: (Byzantine)@." id
      | Some _ ->
          let vec = render id in
          Fmt.pr "node %d: %s@." id vec;
          (match !reference with
          | None -> reference := Some vec
          | Some r ->
              if not (String.equal r vec) then
                Fmt.pr "  !!! vector disagrees with node 0's@."))
    nodes;
  Fmt.pr "@.interactive consistency: all correct vectors identical.@."
