(* Scenario descriptions.

   A scenario is a declarative recipe for one simulation: the protocol
   constants, clock and delay models, which node ids run a Byzantine
   strategy (the rest run the correct protocol), the proposals correct
   Generals make, and a schedule of environment events (crashes, recoveries,
   transient-fault scrambles, network faults). It holds data only; the
   runner builds every closure from it, deterministically from the seed. *)

open Ssba_core.Types
module P = Ssba_core.Params

type event =
  | Crash of { node : node_id; at : float }  (* mute a node's sends *)
  | Recover of { node : node_id; at : float }
  | Scramble of { at : float; values : value list; net_garbage : int }
      (* corrupt all correct-node state (and transport state when a transport
         runs) + inject forged in-flight garbage *)
  | Drop_prob of { at : float; p : float }
      (* transient loss (incoherence); lifted by Heal / Heal_drop *)
  | Partition of { at : float; blocked : node_id list * node_id list }
      (* block messages between the two groups *)
  | Heal of { at : float }
      (* heal-all (back-compat): lift the partition and the transient drop.
         Persistent link faults (Loss/Duplicate/Reorder) are unaffected. *)
  | Heal_partition of { at : float }  (* lift only the partition *)
  | Heal_drop of { at : float }  (* lift only the transient drop *)
  | Loss of { at : float; p : float }
      (* persistent link loss: composes with Drop_prob, survives Heal; only
         another Loss event changes it *)
  | Duplicate of { at : float; p : float }  (* persistent duplication *)
  | Reorder of { at : float; prob : float; extra : float }
      (* persistent reordering: with prob, stretch a delivery by up to extra *)
  | Delay_surge of { at : float; factor : float }
      (* deliveries temporarily exceed delta (factor > 1 violates §2 Def. 2);
         lifted by Delay_restore *)
  | Delay_restore of { at : float }  (* reinstall the scenario's base delay *)
  | Reform of { node : node_id; at : float }
      (* a Byzantine node starts running the correct protocol from arbitrary
         state — the classic self-stabilizing rejoin. No-op on a node that is
         already correct (or already reformed). *)

type proposal = { g : node_id; v : value; at : float }
(* [g] is a *logical* General id: with [channels] > 1 it ranges over
   [0, n * channels) and node [g mod n] initiates on channel [g / n]. *)

type clocks =
  | Perfect
  | Drifting of { rho : float; max_offset : float }

type t = {
  name : string;
  params : Ssba_core.Params.t;
  seed : int;
  delay : Ssba_net.Delay.t;
  clocks : clocks;
  cast : (node_id * Ssba_adversary.Catalog.t) list;
      (* Byzantine ids and their strategies; unlisted ids are correct *)
  proposals : proposal list;
  events : event list;
  horizon : float;  (* stop the engine at this real time *)
  channels : int;
      (* concurrent-invocation channels per General (paper footnote 9);
         logical General ids range over [0, n * channels) *)
  record_trace : bool;
  record_observations : bool;
      (* collect fine-grained protocol events for the invariant monitor *)
  transport : Ssba_transport.Transport.config option;
      (* run all protocol traffic through the reliable transport; params
         should then be built at Params.delta_eff for the worst persistent
         loss the event schedule installs *)
  session_capacity : int option;
      (* override the nodes' session-table capacity (default: the Node
         default, max 8 (n * channels)); tiny values force eviction under
         session floods — the model checker's split-hunt configuration *)
  blackout : bool;
      (* the Initiator-Accept re-initiation blackout knob (default true);
         false only in weakened-checker sensitivity runs *)
  admission : bool;
      (* admission-controlled proposals (default false): a full session
         table refuses a General's own proposal instead of evicting — the
         service-mode backstop behind the watermark-based shedding *)
}

let correct_ids t =
  List.filter (fun id -> not (List.mem_assoc id t.cast)) (List.init t.params.P.n Fun.id)

let byzantine_ids t =
  List.filter (fun id -> List.mem_assoc id t.cast) (List.init t.params.P.n Fun.id)

let event_time = function
  | Crash { at; _ } | Recover { at; _ } | Scramble { at; _ }
  | Drop_prob { at; _ } | Partition { at; _ } | Heal { at }
  | Heal_partition { at } | Heal_drop { at } | Loss { at; _ }
  | Duplicate { at; _ } | Reorder { at; _ } | Delay_surge { at; _ }
  | Delay_restore { at } | Reform { at; _ } ->
      at

(* Events after which the paper's guarantees need a fresh Delta_stb before
   they apply again. Heals and Delay_restore only restore service; persistent
   link faults (Loss/Duplicate/Reorder) are disruptive exactly when nothing
   masks them — pass [masked_link_faults] true when the scenario runs the
   reliable transport, whose contract is to re-establish the bounded-delay
   channel under those faults. *)
let disruptive_event ~masked_link_faults = function
  | Heal _ | Heal_partition _ | Heal_drop _ | Delay_restore _ -> false
  | Loss _ | Duplicate _ | Reorder _ -> not masked_link_faults
  | Crash _ | Recover _ | Scramble _ | Drop_prob _ | Partition _
  | Delay_surge _ | Reform _ ->
      true

let disruptive t = disruptive_event ~masked_link_faults:(t.transport <> None)

(* With a transport in the loop, the paper's timeout cascade must be built at
   the effective delay bound: the base link delta, stretched by the worst
   reordering extra the schedule installs, pushed through delta_eff for the
   worst persistent loss rate. Without transport, the plain cascade. *)
let effective_params ?f ?r_slack ?transport n events =
  match transport with
  | None -> P.default ?f ?r_slack n
  | Some (c : Ssba_transport.Transport.config) ->
      let worst pick = List.fold_left (fun acc e -> Float.max acc (pick e)) 0.0 events in
      let loss = worst (function Loss { p; _ } -> p | _ -> 0.0) in
      let extra = worst (function Reorder { extra; _ } -> extra | _ -> 0.0) in
      let delta =
        P.delta_eff ~delta:((P.default n).P.delta +. extra) ~p:loss
          ~rto:c.Ssba_transport.Transport.rto ~retries:c.Ssba_transport.Transport.retries
      in
      P.default ?f ~delta ?r_slack n

(* A sensible default: random delays within the bound, small drift. *)
let default ?(name = "scenario") ?(seed = 1) ?(horizon = 5.0) ?(record_trace = false)
    ?(record_observations = false) ?delay
    ?(clocks = Drifting { rho = 1e-4; max_offset = 0.1 }) ?(cast = [])
    ?(proposals = []) ?(events = []) ?transport ?(channels = 1)
    ?session_capacity ?(blackout = true) ?(admission = false) params =
  let delay =
    match delay with
    | Some d -> d
    | None ->
        Ssba_net.Delay.uniform ~lo:(0.05 *. params.P.delta) ~hi:params.P.delta
  in
  {
    name;
    params;
    seed;
    delay;
    clocks;
    cast;
    proposals;
    events;
    horizon;
    channels;
    record_trace;
    record_observations;
    transport;
    session_capacity;
    blackout;
    admission;
  }
