(* Pulse synchronization atop recurrent ss-Byz-Agree.

   The paper notes ([6], §1) that synchronized pulses can be produced
   efficiently *on top of* ss-Byz-Agree, and that such pulses in turn make
   any Byzantine algorithm self-stabilizing. This module implements that
   application in its natural simplified form, exercising the protocol's
   recurrent-agreement / rotating-General mode:

   - cycles are numbered; the General for cycle i is node (i mod n);
   - a node fires pulse i when it decides on the agreement for value
     "pulse-<i>" (whoever the General was). By Timeliness 1(a), decisions at
     correct nodes are within 3d of each other, so pulses inherit that skew;
   - after firing pulse i, the scheduled General for cycle i+1 proposes
     "pulse-<i+1>" one [cycle] later on its own clock; every other node arms
     a timeout ladder: if pulse i+1 has not fired within
     cycle + (j+1) * patience, the node whose id matches (i+1+j) mod n
     proposes it instead, skipping silent or Byzantine Generals;
   - a decided cycle index always fast-forwards laggards (a node hearing
     pulse j > its own counter adopts j), which is what re-synchronizes
     nodes after transient faults.

   The cycle length must dominate the agreement and separation constants;
   [min_cycle] gives the safe floor (Delta_v would only bind if the same
   value were reused — values here are unique per cycle, so Delta_0 plus the
   agreement bound suffices, with patience covering Byzantine skips). *)

open Ssba_core.Types
module Node = Ssba_core.Node
module Params = Ssba_core.Params

type pulse = {
  cycle : int;
  tau : float;  (* local time of the pulse *)
  rt : float;  (* simulator real time (for skew measurement) *)
}

type t = {
  node : Node.t;
  cycle_len : float;
  patience : float;  (* per-candidate takeover timeout *)
  mutable next_cycle : int;  (* the pulse we are waiting for *)
  mutable pulses : pulse list;  (* newest first *)
  mutable on_pulse : pulse -> unit;
  mutable epoch : int;  (* invalidates stale timeout ladders *)
}

let value_of_cycle i = Printf.sprintf "pulse-%d" i

let cycle_of_value v =
  match String.index_opt v '-' with
  | Some idx when String.sub v 0 idx = "pulse" -> (
      match int_of_string_opt (String.sub v (idx + 1) (String.length v - idx - 1)) with
      | Some i when i >= 0 -> Some i
      | Some _ | None -> None)
  | Some _ | None -> None

let general_of_cycle t i = i mod (Node.params t.node).Params.n

let pulses t = List.rev t.pulses
let set_on_pulse t f = t.on_pulse <- f
let next_cycle t = t.next_cycle

let min_cycle params =
  params.Params.delta_0 +. params.Params.delta_agr +. (10.0 *. params.Params.d)

let propose_cycle t i =
  if general_of_cycle t i = Node.id t.node then
    match Node.propose t.node (value_of_cycle i) with
    | Ok () -> ()
    | Error _ -> ()  (* rate-limited or blocked; the ladder will retry later *)

(* Arm the timeout ladder for cycle [i]: candidate j (node (i + j) mod n)
   takes over after cycle_len + j * patience on its own clock if the pulse
   has not fired by then. j = 0 is the scheduled General's regular slot. *)
let arm_ladder t i =
  let epoch = t.epoch in
  let n = (Node.params t.node).Params.n in
  let after_local dl f =
    Ssba_sim.Engine.schedule_after (Node.engine t.node)
      ~delay:(Ssba_sim.Clock.real_of_local_duration (Node.clock t.node) dl)
      f
  in
  for j = 0 to n - 1 do
    let candidate = (i + j) mod n in
    if candidate = Node.id t.node then
      after_local
        (t.cycle_len +. (float_of_int j *. t.patience))
        (fun () ->
          if t.epoch = epoch && t.next_cycle <= i then
            match Node.propose t.node (value_of_cycle i) with
            | Ok () -> ()
            | Error _ -> ())
  done

let fire t ~cycle ~tau ~rt =
  let p = { cycle; tau; rt } in
  t.pulses <- p :: t.pulses;
  t.next_cycle <- cycle + 1;
  t.epoch <- t.epoch + 1;
  t.on_pulse p;
  arm_ladder t (cycle + 1)

let handle_return t (r : return_info) =
  match r.outcome with
  | Aborted -> ()
  | Decided v -> (
      match cycle_of_value v with
      | Some i when i >= t.next_cycle -> fire t ~cycle:i ~tau:r.tau_ret ~rt:r.rt_ret
      | Some _ | None -> ())

let create ~node ~cycle_len () =
  let params = Node.params node in
  if cycle_len < min_cycle params then
    invalid_arg "Pulse_sync.create: cycle_len below the safe floor";
  let patience = params.Params.delta_agr +. (20.0 *. params.Params.d) in
  let t =
    { node; cycle_len; patience; next_cycle = 0; pulses = []; on_pulse = (fun _ -> ()); epoch = 0 }
  in
  Node.subscribe node (fun r -> handle_return t r);
  t

(* Bootstrap: start the ladder for cycle 0 (General = node 0). *)
let start t =
  propose_cycle t 0;
  arm_ladder t 0
