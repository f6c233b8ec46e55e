(* A traced replica of [Runner.run]'s plain-network path.

   [Runner] builds its world internally, so spans around the engine, the
   network and the node handlers can only be recorded by building the same
   world from outside: the same [Rng.split] order, [Network.create], then
   [Node.create_on] for each id, over a [Link.t] whose fields are wrapped in
   spans. [send]/[broadcast] time the [net] layer; [set_handler] wraps the
   handler each node installs, which times [node]. The replica covers only
   what the traced workloads use — all-correct casts, no transport, no
   event schedule — and the mirror check in [Workloads] proves it
   reproduces [Runner.run] exactly before any per-layer number is printed. *)

open Ssba_core.Types
module Engine = Ssba_sim.Engine
module Rng = Ssba_sim.Rng
module Network = Ssba_net.Network
module Link = Ssba_net.Link
module Node = Ssba_core.Node
module Sc = Ssba_harness.Scenario
module R = Ssba_harness.Runner

type accs = {
  setup : Span.acc;  (** world construction *)
  run : Span.acc;  (** [Engine.run] *)
  send : Span.acc;  (** [Link.send] and [Link.broadcast] *)
  deliver : Span.acc;  (** a node's installed handler *)
  propose : Span.acc;  (** [Node.propose] *)
  on_return : Span.acc;  (** driver return callbacks (the service) *)
}

let accs sp =
  {
    setup = Span.acc ~keep:true sp "runner.setup";
    run = Span.acc ~keep:true sp "engine.run";
    send = Span.acc sp "net.send";
    deliver = Span.acc sp "node.deliver";
    propose = Span.acc sp "node.propose";
    on_return = Span.acc sp "service.on_return";
  }

type t = {
  engine : Engine.t;
  net : message Network.t;
  nodes : (node_id * Node.t) list;
  returns : return_info list ref;  (** newest first *)
  scenario : Sc.t;
}

let timed sp acc f =
  Span.start sp acc;
  let r = f () in
  Span.stop sp;
  r

let traced_link sp a (l : message Link.t) =
  {
    l with
    Link.send =
      (fun ~src ~dst m ->
        Span.start sp a.send;
        l.Link.send ~src ~dst m;
        Span.stop sp);
    broadcast =
      (fun ~src m ->
        Span.start sp a.send;
        l.Link.broadcast ~src m;
        Span.stop sp);
    set_handler =
      (fun id h ->
        l.Link.set_handler id (fun msg ->
            Span.start sp a.deliver;
            h msg;
            Span.stop sp));
  }

let covered (sc : Sc.t) =
  sc.Sc.transport = None && sc.Sc.events = [] && Sc.byzantine_ids sc = []

(* Build the world; [on_driver] gets the same hook [Runner.run] hands a
   driver, with [drv_propose] and the return callbacks wrapped in spans. *)
let build ?on_driver sp a (sc : Sc.t) =
  if not (covered sc) then
    invalid_arg "World.build: scenario outside the replica's coverage";
  timed sp a.setup (fun () ->
      let params = sc.Sc.params in
      let n = params.Ssba_core.Params.n in
      let root = Rng.create sc.Sc.seed in
      let net_rng = Rng.split root in
      let clock_rng = Rng.split root in
      let trace = Ssba_sim.Trace.create ~enabled:sc.Sc.record_trace () in
      let engine = Engine.create ~trace () in
      let net =
        Network.create ~engine ~n ~delay:sc.Sc.delay ~rng:net_rng
          ~kind_of:kind_of_message ()
      in
      let link = traced_link sp a (Network.link net) in
      let clocks =
        Array.init n (fun _ ->
            match sc.Sc.clocks with
            | Sc.Perfect -> Ssba_sim.Clock.perfect
            | Sc.Drifting { rho; max_offset } ->
                Ssba_sim.Clock.random clock_rng ~rho ~max_offset)
      in
      let returns = ref [] in
      let hooks = ref [] in
      let push r =
        returns := r :: !returns;
        List.iter (fun f -> f r) !hooks
      in
      let nodes =
        List.init n (fun id ->
            let node =
              Node.create_on ~channels:sc.Sc.channels
                ?session_capacity:sc.Sc.session_capacity ~blackout:sc.Sc.blackout
                ~admission:sc.Sc.admission ~id ~params ~clock:clocks.(id) ~engine
                ~link ()
            in
            Node.subscribe node push;
            (id, node))
      in
      let propose ~g v =
        let node = List.assoc (g mod n) nodes in
        timed sp a.propose (fun () -> Node.propose ~channel:(g / n) node v)
      in
      List.iter
        (fun (p : Sc.proposal) ->
          Engine.schedule engine ~at:p.Sc.at (fun () ->
              ignore (propose ~g:p.Sc.g p.Sc.v)))
        sc.Sc.proposals;
      Option.iter
        (fun f ->
          f
            {
              R.drv_engine = engine;
              drv_params = params;
              drv_propose =
                (fun ~g ~v ->
                  match propose ~g v with
                  | Ok () -> R.Accepted
                  | Error e -> R.Refused e);
              drv_live = (fun () -> nodes);
              drv_on_return =
                (fun cb ->
                  hooks := !hooks @ [ (fun r -> timed sp a.on_return (fun () -> cb r)) ]);
            })
        on_driver;
      { engine; net; nodes; returns; scenario = sc })

let run sp a w =
  timed sp a.run (fun () -> Engine.run ~until:w.scenario.Sc.horizon w.engine)

(* Returns in [Runner.result]'s order. *)
let returns w = List.sort (fun a b -> compare a.rt_ret b.rt_ret) !(w.returns)
