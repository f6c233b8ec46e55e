(* Scenario interpreter: builds the engine, network (optionally behind the
   reliable transport), correct nodes and Byzantine behaviours, applies the
   event schedule, runs to the horizon and packages everything the
   metrics/checks layers need.

   Fault composition: the transient drop probability (Drop_prob, lifted by
   Heal/Heal_drop) and the persistent link loss (Loss, changed only by
   another Loss event) are tracked separately and composed multiplicatively
   into the network's single drop knob, so transient incoherence can overlap
   a persistently lossy link without either clobbering the other. *)

open Ssba_core.Types
module Rng = Ssba_sim.Rng
module Engine = Ssba_sim.Engine
module Clock = Ssba_sim.Clock
module Trace = Ssba_sim.Trace
module Metrics = Ssba_sim.Metrics
module Network = Ssba_net.Network
module Transport = Ssba_transport.Transport
module Node = Ssba_core.Node
module Params = Ssba_core.Params

type observation = {
  obs_node : node_id;
  obs_g : general;
  obs : Ssba_core.Ss_byz_agree.observation;
  obs_rt : float;  (* engine real time at which the event fired *)
}

(* What became of a scheduled proposal, evaluated at its [at] time. A General
   that is Byzantine (or simply has no correct node) is [No_general] — not a
   protocol-level refusal, since no correct code ever ran. *)
type proposal_outcome =
  | Accepted
  | Refused of Node.propose_error
  | No_general

type result = {
  scenario : Scenario.t;
  returns : return_info list;  (* correct-node returns, in rt order *)
  observations : observation list;  (* chronological; empty unless enabled *)
  correct : node_id list;
  clocks : Clock.t array;  (* indexed by node id; Byzantine entries too *)
  nodes : (node_id * Node.t) list;  (* the correct protocol nodes *)
  proposal_results : (Scenario.proposal * proposal_outcome) list;
  engine_stats : Engine.stats;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  messages_duplicated : int;  (* fault-injected second copies *)
  messages_in_flight : int;  (* scheduled but undelivered at the horizon *)
  messages_by_kind : (string * int) list;
  transport_retransmits : int;  (* 0 when the scenario runs without transport *)
  transport_dup_suppressed : int;
  transport_expired : int;
  transport_retries_exhausted : int;
      (* frames abandoned at the retry cap — previously silent *)
  transport_evicted : int;
      (* unacked frames overwritten by a full send window — not digested *)
  metrics : Metrics.t;  (* the engine's registry: net.*, engine.*, node<i>.* *)
  trace : Trace.t;
}

(* Hook handed to a scenario driver (the service loop): enough of the
   interpreter's innards to generate proposals at runtime and observe every
   return — including returns of nodes reformed mid-run — without
   re-implementing the setup. Driver-made proposals land in
   [proposal_results] like scheduled ones, with [at] = the engine time of
   the call. *)
type driver = {
  drv_engine : Engine.t;
  drv_params : Params.t;
  drv_propose : g:int -> v:value -> proposal_outcome;
  drv_live : unit -> (node_id * Node.t) list;
  drv_on_return : (return_info -> unit) -> unit;
}

let build_clock rng = function
  | Scenario.Perfect -> Clock.perfect
  | Scenario.Drifting { rho; max_offset } -> Clock.random rng ~rho ~max_offset

(* Random protocol message for incoherent-period garbage. *)
let garbage_message ~rng ~params ~values =
  let n = params.Params.n in
  let g = Rng.int rng n in
  let v = Rng.pick_list rng values in
  match Rng.int rng 8 with
  | 0 -> Initiator { g; v }
  | 1 -> Ia { kind = Support; g; v }
  | 2 -> Ia { kind = Approve; g; v }
  | 3 -> Ia { kind = Ready; g; v }
  | c ->
      let kind = match c with 4 -> Init | 5 -> Echo | 6 -> Init2 | _ -> Echo2 in
      Mb
        {
          kind;
          p = Rng.int rng n;
          g;
          v;
          k = 1 + Rng.int rng (max 1 (params.Params.f + 1));
        }

(* The scenario interpreter is agnostic to whether protocol traffic rides the
   raw network or the reliable transport: it sees the payload-typed link plus
   closures over the underlying network's fault knobs. *)
type net_iface = {
  link : message Ssba_net.Link.t;
  set_muted : int -> bool -> unit;
  set_delay : Ssba_net.Delay.t -> unit;
  set_drop_prob : float -> unit;
  set_dup_prob : float -> unit;
  set_reorder : Network.reorder option -> unit;
  set_partition : (src:int -> dst:int -> bool) option -> unit;
  inject_garbage : rng:Rng.t -> values:value list -> count:int -> unit;
  scramble_transport : rng:Rng.t -> unit;
  scramble_pool : values:value list -> unit;
      (* trash the delivery arena's free descriptors (its own RNG stream;
         armed descriptors and results untouched) *)
}

(* The knobs of [net], whatever frame type it carries. [garbage]
   forges one in-flight frame for the incoherent period (random protocol
   messages claiming random senders, delivered over the next ~Delta_rmv);
   [pool_garbage] is what a trashed free descriptor holds. *)
let net_iface (type f) ~params ~(net : f Network.t) ~link ~transport
    ~(garbage : Rng.t -> values:value list -> f)
    ~(pool_garbage : Rng.t -> values:value list -> f) =
  let n = Network.size net in
  {
    link;
    set_muted = Network.set_muted net;
    set_delay = Network.set_delay net;
    set_drop_prob = Network.set_drop_prob net;
    set_dup_prob = Network.set_dup_prob net;
    set_reorder = Network.set_reorder net;
    set_partition = Network.set_partition net;
    inject_garbage =
      (fun ~rng ~values ~count ->
        for _ = 1 to count do
          let claimed_src = Rng.int rng n in
          let dst = Rng.int rng n in
          let payload = garbage rng ~values in
          let delay = Rng.float rng params.Params.delta_rmv in
          Network.inject_forged net ~claimed_src ~dst ~delay payload
        done);
    scramble_transport =
      (fun ~rng -> Option.iter (fun t -> Transport.scramble t ~rng) transport);
    scramble_pool =
      (fun ~values -> Network.scramble_pool net ~payload:(pool_garbage ~values));
  }

let plain_iface ~engine ~params ~delay ~rng n =
  let net = Network.create ~engine ~n ~delay ~rng ~kind_of:kind_of_message () in
  let garbage rng ~values = garbage_message ~rng ~params ~values in
  net_iface ~params ~net ~link:(Network.link net) ~transport:None ~garbage
    ~pool_garbage:garbage

(* Transport-backed variant: protocol payloads ride Data frames; garbage is
   forged at the frame level (Data with random seqs, plus bare Acks), so the
   transport's own state machine is also exposed to incoherent input. *)
let transport_iface ~engine ~params ~delay ~rng ~config n =
  let net =
    Network.create ~engine ~n ~delay ~rng
      ~kind_of:(Transport.kind_of kind_of_message) ()
  in
  let tr = Transport.create ~kind_of:kind_of_message ~engine ~net ~config () in
  let data rng ~values =
    Transport.Data
      { seq = Rng.int rng 1_000_000; payload = garbage_message ~rng ~params ~values }
  in
  net_iface ~params ~net ~link:(Transport.link tr) ~transport:(Some tr)
    ~garbage:(fun rng ~values ->
      if Rng.int rng 4 = 0 then Transport.Ack { seq = Rng.int rng 1_000_000 }
      else data rng ~values)
    ~pool_garbage:data

(* The run's counts are read by name from the registry the network and the
   transport fed; a transport counter is absent when no transport ran. *)
let finish scenario engine engine_stats ~returns ~observations ~correct ~clocks
    ~nodes ~proposal_results =
  let metrics = Engine.metrics engine in
  let count name = Option.value (Metrics.find_counter metrics name) ~default:0 in
  {
    scenario;
    returns = List.sort (fun a b -> compare a.rt_ret b.rt_ret) returns;
    observations = List.rev observations;
    correct;
    clocks;
    nodes;
    proposal_results = List.rev proposal_results;
    engine_stats;
    messages_sent = count "net.sent";
    messages_delivered = count "net.delivered";
    messages_dropped = count "net.dropped";
    messages_duplicated = count "net.duplicated";
    messages_in_flight =
      int_of_float
        (Option.value (Metrics.find_gauge metrics "net.in_flight") ~default:0.0);
    messages_by_kind = Metrics.counters_with_prefix metrics "net.sent.";
    transport_retransmits = count "transport.retransmits";
    transport_dup_suppressed = count "transport.dup_suppressed";
    transport_expired = count "transport.expired";
    transport_retries_exhausted = count "transport.retries_exhausted";
    transport_evicted = count "transport.evicted";
    metrics;
    trace = Engine.trace engine;
  }

let run ?on_driver ?speed (sc : Scenario.t) =
  let params = sc.Scenario.params in
  let n = params.Params.n in
  let root = Rng.create sc.Scenario.seed in
  let net_rng = Rng.split root in
  let clock_rng = Rng.split root in
  let adv_rng = Rng.split root in
  let scramble_rng = Rng.split root in
  let trace = Trace.create ~enabled:sc.Scenario.record_trace () in
  let engine = Engine.create ~trace () in
  let iface =
    match sc.Scenario.transport with
    | None -> plain_iface ~engine ~params ~delay:sc.Scenario.delay ~rng:net_rng n
    | Some config ->
        transport_iface ~engine ~params ~delay:sc.Scenario.delay ~rng:net_rng
          ~config n
  in
  let clocks = Array.init n (fun _ -> build_clock clock_rng sc.Scenario.clocks) in
  let byzantine id = List.mem_assoc id sc.Scenario.cast in
  (* Driver callbacks see every return, from initial and reformed nodes
     alike: every protocol node is attached through [attach], which funnels
     its returns through [push_return] and records its observations. *)
  let returns = ref [] in
  let observations = ref [] in
  let return_hooks = ref [] in
  let push_return r =
    returns := r :: !returns;
    List.iter (fun f -> f r) !return_hooks
  in
  let attach id node =
    Node.subscribe node push_return;
    if sc.Scenario.record_observations then
      Node.subscribe_observations node (fun g obs ->
          observations :=
            { obs_node = id; obs_g = g; obs; obs_rt = Engine.now engine }
            :: !observations);
    (id, node)
  in
  (* Correct nodes first, then Byzantine behaviours (which overwrite the
     link handler for their id). Reformed Byzantine nodes join [live_nodes]
     mid-run (Reform events). *)
  let live_nodes =
    ref
      (List.filter_map
         (fun id ->
           if byzantine id then None
           else
             Some
               (attach id
                  (Node.create_on ~channels:sc.Scenario.channels
                     ?session_capacity:sc.Scenario.session_capacity
                     ~blackout:sc.Scenario.blackout ~admission:sc.Scenario.admission
                     ~id ~params ~clock:clocks.(id) ~engine ~link:iface.link ())))
         (List.init n Fun.id))
  in
  (* The behaviours a reform abandons keep their scheduled callbacks, so
     every behaviour sends through a guard that silences reformed ids. *)
  let reformed = Array.make n false in
  let behavior_link =
    {
      iface.link with
      Ssba_net.Link.send =
        (fun ~src ~dst m ->
          if not reformed.(src) then iface.link.Ssba_net.Link.send ~src ~dst m);
      broadcast =
        (fun ~src m ->
          if not reformed.(src) then iface.link.Ssba_net.Link.broadcast ~src m);
    }
  in
  for id = 0 to n - 1 do
    match List.assoc_opt id sc.Scenario.cast with
    | None -> ()
    | Some entry ->
        Ssba_adversary.Catalog.install ~d:params.Params.d entry
          {
            Ssba_adversary.Catalog.self = id;
            params;
            engine;
            rng = Rng.split adv_rng;
            link = behavior_link;
          }
  done;
  (* Arbitrary-state vocabulary for reformed nodes: the run's proposal values
     plus one value nobody proposes, so reform-time garbage can collide with
     real agreements and still be told apart. *)
  let reform_values =
    List.sort_uniq compare
      (List.map (fun (p : Scenario.proposal) -> p.Scenario.v) sc.Scenario.proposals)
    @ [ "~reform-garbage" ]
  in
  (* Event schedule. Transient drop and persistent loss compose into the
     network's one drop knob: the message survives both hazards. *)
  let transient_drop = ref 0.0 in
  let persistent_loss = ref 0.0 in
  let apply_loss () =
    iface.set_drop_prob
      (1.0 -. ((1.0 -. !transient_drop) *. (1.0 -. !persistent_loss)))
  in
  List.iter
    (fun ev ->
      Engine.schedule engine ~at:(Scenario.event_time ev) (fun () ->
          match ev with
          | Scenario.Crash { node; _ } -> iface.set_muted node true
          | Scenario.Recover { node; _ } -> iface.set_muted node false
          | Scenario.Scramble { values; net_garbage; _ } ->
              List.iter
                (fun (_, node) -> Node.scramble scramble_rng ~values node)
                !live_nodes;
              iface.scramble_transport ~rng:scramble_rng;
              iface.scramble_pool ~values;
              iface.inject_garbage ~rng:scramble_rng ~values ~count:net_garbage;
              Engine.record engine ~node:(-1)
                (Trace.Scramble { garbage = net_garbage })
          | Scenario.Drop_prob { p; _ } ->
              transient_drop := p;
              apply_loss ()
          | Scenario.Loss { p; _ } ->
              persistent_loss := p;
              apply_loss ()
          | Scenario.Duplicate { p; _ } -> iface.set_dup_prob p
          | Scenario.Reorder { prob; extra; _ } ->
              iface.set_reorder
                (if prob <= 0.0 || extra <= 0.0 then None
                 else Some { Network.prob; extra })
          | Scenario.Partition { blocked = ga, gb; _ } ->
              iface.set_partition
                (Some
                   (fun ~src ~dst ->
                     (List.mem src ga && List.mem dst gb)
                     || (List.mem src gb && List.mem dst ga)))
          | Scenario.Heal _ ->
              iface.set_partition None;
              transient_drop := 0.0;
              apply_loss ()
          | Scenario.Heal_partition _ -> iface.set_partition None
          | Scenario.Heal_drop _ ->
              transient_drop := 0.0;
              apply_loss ()
          | Scenario.Delay_surge { factor; _ } ->
              iface.set_delay (Ssba_net.Delay.scaled factor sc.Scenario.delay);
              Engine.record engine ~node:(-1) (Trace.Delay_surge { factor })
          | Scenario.Delay_restore _ ->
              iface.set_delay sc.Scenario.delay;
              Engine.record engine ~node:(-1) (Trace.Delay_surge { factor = 0.0 })
          | Scenario.Reform { node; _ } ->
              if byzantine node && not reformed.(node) then begin
                (* Silence the abandoned behaviour first, then let the correct
                   protocol take over the link handler from arbitrary state. *)
                reformed.(node) <- true;
                let nd =
                  Node.reform ~channels:sc.Scenario.channels
                    ?session_capacity:sc.Scenario.session_capacity
                    ~admission:sc.Scenario.admission ~rng:scramble_rng
                    ~values:reform_values ~id:node ~params
                    ~clock:clocks.(node) ~engine ~link:iface.link ()
                in
                live_nodes := !live_nodes @ [ attach node nd ];
                Engine.record engine ~node (Trace.Reform { node })
              end))
    sc.Scenario.events;
  (* Proposals, scheduled and driver-made alike. [p.g] is a logical General
     id: node [g mod n] initiates on channel [g / n] (the identity decoding
     when channels = 1). A General that is Byzantine or absent is
     [No_general]. *)
  let proposal_results = ref [] in
  let propose (p : Scenario.proposal) =
    let outcome =
      match List.assoc_opt (p.Scenario.g mod n) !live_nodes with
      | None -> No_general
      | Some node -> (
          match Node.propose ~channel:(p.Scenario.g / n) node p.Scenario.v with
          | Ok () -> Accepted
          | Error e -> Refused e)
    in
    proposal_results := (p, outcome) :: !proposal_results;
    outcome
  in
  (* Every scheduled proposal is evaluated at its [at], so [proposal_results]
     comes out in chronological order (engine ties break by scheduling
     order). *)
  List.iter
    (fun (p : Scenario.proposal) ->
      Engine.schedule engine ~at:p.Scenario.at (fun () -> ignore (propose p)))
    sc.Scenario.proposals;
  (* Hand the driver (if any) its hook before the engine runs: it schedules
     its own arrivals/retries against the same engine, and its proposals are
     recorded exactly like scheduled ones. *)
  Option.iter
    (fun f ->
      f
        {
          drv_engine = engine;
          drv_params = params;
          drv_propose = (fun ~g ~v -> propose { Scenario.g; v; at = Engine.now engine });
          drv_live = (fun () -> !live_nodes);
          drv_on_return = (fun cb -> return_hooks := !return_hooks @ [ cb ]);
        })
    on_driver;
  let engine_stats =
    match speed with
    | None -> Engine.run ~until:sc.Scenario.horizon engine
    | Some speed -> Engine.run_realtime ~speed ~until:sc.Scenario.horizon engine
  in
  finish sc engine engine_stats ~returns:!returns ~observations:!observations
    ~correct:
      (List.sort compare
         (Scenario.correct_ids sc
         @ List.filter (fun id -> reformed.(id)) (Scenario.byzantine_ids sc)))
    ~clocks ~nodes:!live_nodes ~proposal_results:!proposal_results
