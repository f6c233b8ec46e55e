(* Shared test utilities.

   [Fake] provides a synthetic execution context for unit-testing the
   protocol state machines in isolation: a controllable local clock, a log of
   sent messages, and a timer queue fired by [advance]. [Cluster] builds a
   complete small simulation for integration tests. *)

open Ssba_core

module Fake = struct
  type t = {
    mutable now : float;
    mutable sent : (float * Types.message) list;  (* newest first *)
    mutable timers : (float * (unit -> unit)) list;
    mutable traced : Ssba_sim.Trace.event list;  (* newest first *)
    params : Params.t;
  }

  let make ?(self = 0) ?(now = 100.0) params =
    let t = { now; sent = []; timers = []; traced = []; params } in
    let ctx =
      {
        Types.params;
        self;
        local_time = (fun () -> t.now);
        send_all = (fun m -> t.sent <- (t.now, m) :: t.sent);
        after_local =
          (fun dl f ->
            if dl < 0.0 then invalid_arg "fake after_local: negative";
            t.timers <- (t.now +. dl, f) :: t.timers);
        trace = (fun ev -> t.traced <- ev :: t.traced);
      }
    in
    (t, ctx)

  (* Advance local time by [dl], firing due timers in order. *)
  let advance t dl =
    let target = t.now +. dl in
    let rec loop () =
      let due =
        List.filter (fun (at, _) -> at <= target) t.timers
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      match due with
      | [] -> ()
      | (at, f) :: _ ->
          t.timers <- List.filter (fun (at', f') -> not (at' == at && f' == f)) t.timers;
          t.now <- at;
          f ();
          loop ()
    in
    loop ();
    t.now <- target

  let sent_kinds t = List.rev_map (fun (_, m) -> Types.kind_of_message m) t.sent
  let clear_sent t = t.sent <- []

  let count_kind t kind =
    List.length (List.filter (fun k -> String.equal k kind) (sent_kinds t))
end

module Cluster = struct
  type t = {
    params : Params.t;
    engine : Ssba_sim.Engine.t;
    net : Types.message Ssba_net.Network.t;
    nodes : Node.t option array;  (* [None] for skipped (non-correct) slots *)
    clocks : Ssba_sim.Clock.t array;
    returns : Types.return_info list ref;
  }

  (* [make ~n ()] builds n correct nodes over a uniform-delay network.
     [skip] ids get no node (their slots stay silent or are taken over by
     adversaries installed afterwards). *)
  let make ?(seed = 42) ?(skip = []) ?(delay = `Uniform) ?(clock = `Drifting) ~n ()
      =
    let params = Params.default n in
    let engine = Ssba_sim.Engine.create () in
    let rng = Ssba_sim.Rng.create seed in
    let delay =
      match delay with
      | `Uniform ->
          Ssba_net.Delay.uniform ~lo:(0.05 *. params.Params.delta)
            ~hi:params.Params.delta
      | `Fixed x -> Ssba_net.Delay.fixed x
    in
    let net =
      Ssba_net.Network.create ~engine ~n ~delay ~rng:(Ssba_sim.Rng.split rng)
        ~kind_of:Types.kind_of_message ()
    in
    let clocks =
      Array.init n (fun _ ->
          match clock with
          | `Perfect -> Ssba_sim.Clock.perfect
          | `Drifting ->
              Ssba_sim.Clock.random (Ssba_sim.Rng.split rng)
                ~rho:params.Params.rho ~max_offset:0.2)
    in
    let returns = ref [] in
    let nodes =
      Array.init n (fun id ->
          if List.mem id skip then None
          else begin
            let node =
              Node.create_on ~id ~params ~clock:clocks.(id) ~engine
                ~link:(Ssba_net.Network.link net) ()
            in
            Node.subscribe node (fun r -> returns := r :: !returns);
            Some node
          end)
    in
    { params; engine; net; nodes; clocks; returns }

  let node t id =
    match t.nodes.(id) with
    | Some n -> n
    | None -> Alcotest.failf "cluster: node %d was skipped" id

  let run ?(until = 2.0) t = ignore (Ssba_sim.Engine.run ~until t.engine)

  let returns t =
    List.sort
      (fun (a : Types.return_info) b -> compare a.Types.rt_ret b.Types.rt_ret)
      !(t.returns)

  let decided_values t =
    List.filter_map
      (fun (r : Types.return_info) ->
        match r.Types.outcome with Types.Decided v -> Some v | Types.Aborted -> None)
      (returns t)
end

(* QCheck generators and shrinkers for the scenario building blocks, used by
   the fuzz property suite. Events shrink toward earlier, milder instances;
   strategies shrink along Catalog.simplify toward Silent. *)
module Q = struct
  module G = QCheck.Gen
  module S = Ssba_harness.Scenario
  module C = Ssba_adversary.Catalog

  let values = [ "alpha"; "beta"; "gamma" ]

  let gen_event ~n ~horizon : S.event G.t =
    let open G in
    let at = float_range 0.0 horizon in
    let node = int_bound (n - 1) in
    oneof
      [
        map2 (fun node at -> S.Crash { node; at }) node at;
        map2 (fun node at -> S.Recover { node; at }) node at;
        map2
          (fun at net_garbage -> S.Scramble { at; values; net_garbage })
          at (int_bound 200);
        map2 (fun at p -> S.Drop_prob { at; p }) at (float_range 0.0 1.0);
        map2
          (fun at k ->
            let ids = List.init n Fun.id in
            let ga = List.filteri (fun i _ -> i <= k) ids in
            let gb = List.filteri (fun i _ -> i > k) ids in
            S.Partition { at; blocked = (ga, gb) })
          at
          (int_bound (n - 2));
        map (fun at -> S.Heal { at }) at;
        map (fun at -> S.Heal_partition { at }) at;
        map (fun at -> S.Heal_drop { at }) at;
        map2 (fun at p -> S.Loss { at; p }) at (float_range 0.0 1.0);
        map2 (fun at p -> S.Duplicate { at; p }) at (float_range 0.0 1.0);
        map3
          (fun at prob extra -> S.Reorder { at; prob; extra })
          at (float_range 0.0 1.0) (float_range 0.0 0.01);
        map2
          (fun at factor -> S.Delay_surge { at; factor })
          at (float_range 1.0 8.0);
        map (fun at -> S.Delay_restore { at }) at;
        map2 (fun node at -> S.Reform { node; at }) node at;
      ]

  (* Simpler variants of one event: pull it to time 0, soften its knob. *)
  let shrink_event (e : S.event) yield =
    match e with
    | S.Crash { node; at } ->
        if at > 0.0 then yield (S.Crash { node; at = 0.0 })
    | S.Recover { node; at } ->
        if at > 0.0 then yield (S.Recover { node; at = 0.0 })
    | S.Scramble { at; values; net_garbage } ->
        if net_garbage > 0 then
          yield (S.Scramble { at; values; net_garbage = net_garbage / 2 });
        if values <> [] then
          yield (S.Scramble { at; values = [ List.hd values ]; net_garbage })
    | S.Drop_prob { at; p } ->
        if p > 0.0 then yield (S.Drop_prob { at; p = p /. 2.0 })
    | S.Partition { at; _ } -> yield (S.Heal { at })
    | S.Loss { at; p } -> if p > 0.0 then yield (S.Loss { at; p = p /. 2.0 })
    | S.Duplicate { at; p } ->
        if p > 0.0 then yield (S.Duplicate { at; p = p /. 2.0 })
    | S.Reorder { at; prob; extra } ->
        if prob > 0.0 then yield (S.Reorder { at; prob = prob /. 2.0; extra });
        if extra > 0.0 then yield (S.Reorder { at; prob; extra = extra /. 2.0 })
    | S.Delay_surge { at; factor } ->
        (* soften toward factor 1 (a surge that changes nothing) *)
        if factor > 1.0 then
          yield (S.Delay_surge { at; factor = 1.0 +. ((factor -. 1.0) /. 2.0) })
    | S.Reform { node; at } ->
        if at > 0.0 then yield (S.Reform { node; at = 0.0 })
    | S.Heal _ | S.Heal_partition _ | S.Heal_drop _ | S.Delay_restore _ -> ()

  let arb_event ~n ~horizon =
    QCheck.make ~shrink:shrink_event
      ~print:(fun e ->
        Ssba_sim.Json.to_string (Ssba_fuzz.Spec.to_json
          {
            Ssba_fuzz.Spec.name = "event";
            seed = 0;
            n;
            f = Ssba_core.Params.max_faults n;
            delay = Ssba_net.Delay.Fixed 0.001;
            clocks = S.Perfect;
            cast = [];
            proposals = [];
            events = [ e ];
            transport = None;
            horizon;
            session_capacity = None;
            blackout = true;
            r_slack = Ssba_core.Params.default_r_slack;
            service = None;
          }))
      (gen_event ~n ~horizon)

  let gen_strategy ~n : C.t G.t =
    G.map
      (fun seed ->
        let rng = Ssba_sim.Rng.create seed in
        C.generate rng ~values ~at_lo:0.0 ~at_hi:1.0 ~n)
      G.(int_bound 0x3FFFFFFF)

  let arb_strategy ~n =
    QCheck.make
      ~shrink:(fun c yield -> List.iter yield (C.simplify c))
      ~print:(Fmt.to_to_string C.pp) (gen_strategy ~n)

  (* A whole generated spec, addressed by generator seed: the property suite
     checks Gen.spec's output invariants over these. *)
  let gen_spec ?(config = Ssba_fuzz.Gen.default_config) () :
      Ssba_fuzz.Spec.t G.t =
    G.map
      (fun seed -> Ssba_fuzz.Gen.spec (Ssba_sim.Rng.create seed) config)
      G.(int_bound 0x3FFFFFFF)

  let arb_spec ?config () =
    QCheck.make
      ~print:(fun s -> Ssba_sim.Json.to_string (Ssba_fuzz.Spec.to_json s))
      (gen_spec ?config ())
end

(* Alcotest shorthands. *)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9f, got %.9f" msg expected actual

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* Deterministic qcheck wrapper: a fixed RNG per property so `dune runtest`
   is reproducible run to run (qcheck otherwise self-seeds). *)
let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xBA5E; 42 |]) t

(* A counter of the engine's metrics registry, read by name as the Runner
   reads it (0 when absent). *)
let counter engine name =
  Option.value ~default:0
    (Ssba_sim.Metrics.find_counter (Ssba_sim.Engine.metrics engine) name)
