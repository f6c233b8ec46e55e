(* Enumerable strategy catalog.

   A data mirror of Strategies and the vocabulary of every scenario cast:
   each constructor carries exactly the parameters of the closure it
   instantiates, with durations in units of d so an entry is meaningful
   under any Params.t. The runner instantiates entries, the fuzzer draws them
   with [generate], persists them through Ssba_fuzz.Spec's JSON codec, and
   walks [simplify] when minimizing a failing scenario. *)

open Ssba_core.Types
module Rng = Ssba_sim.Rng

type t =
  | Silent
  | Spam of { period_d : float; values : value list }
  | Mimic of { delay_d : float }
  | Two_faced_general of { v1 : value; v2 : value; at : float }
  | Stagger_general of { v : value; at : float; gap_d : float }
  | Partial_general of { v : value; at : float; targets : node_id list }
  | Equivocator of { v1 : value; v2 : value }
  | Flip_flop of { period_d : float; values : value list }
  | Gate_edge of { v : value; at : float }
      (* boundary-timing General: paces the IA stages so I-accepts land
         exactly on block R's gate boundary, then re-initiates at the
         2 Delta_rmv + 9d separation-decay boundary. Drawn by [generate]
         only when the caller opts into [~edges:true]. *)
  | Scripted of { steps : (float * node_id option * message) list }
      (* absolute-time send transcript; the model checker's counterexample
         export and the round stretcher's colluders. Never drawn by
         [generate]. *)

let name = function
  | Silent -> "silent"
  | Spam _ -> "spam"
  | Mimic _ -> "mimic"
  | Two_faced_general _ -> "two-faced-general"
  | Stagger_general _ -> "stagger-general"
  | Partial_general _ -> "partial-general"
  | Equivocator _ -> "equivocator"
  | Flip_flop _ -> "flip-flop"
  | Gate_edge _ -> "gate-edge"
  | Scripted _ -> "scripted"

let to_behavior ~d = function
  | Silent -> Strategies.silent
  | Spam { period_d; values } -> Strategies.spam ~period:(period_d *. d) ~values
  | Mimic { delay_d } -> Strategies.mimic ~delay:(delay_d *. d)
  | Two_faced_general { v1; v2; at } -> Strategies.two_faced_general ~v1 ~v2 ~at
  | Stagger_general { v; at; gap_d } ->
      Strategies.stagger_general ~v ~at ~gap:(gap_d *. d)
  | Partial_general { v; at; targets } -> Strategies.partial_general ~v ~at ~targets
  | Equivocator { v1; v2 } -> Strategies.equivocator ~v1 ~v2
  | Flip_flop { period_d; values } ->
      Strategies.flip_flop ~period:(period_d *. d) ~values
  | Gate_edge { v; at } -> Strategies.gate_edge ~v ~at
  | Scripted { steps } -> Strategies.scripted ~steps

let activity_times = function
  | Two_faced_general { at; _ } | Stagger_general { at; _ }
  | Partial_general { at; _ } | Gate_edge { at; _ } ->
      [ at ]
  | Scripted { steps } -> List.map (fun (at, _, _) -> at) steps
  | Silent | Spam _ | Mimic _ | Equivocator _ | Flip_flop _ -> []

(* Toward Silent: periodic attackers lose their payload diversity first, then
   everything collapses to a crash fault. General-role attacks degrade to a
   partial General (one target), then Silent. *)
let simplify = function
  | Silent -> []
  | Spam { values; period_d } when List.length values > 1 ->
      [ Spam { period_d; values = [ List.hd values ] }; Silent ]
  | Spam _ | Mimic _ | Equivocator _ -> [ Silent ]
  | Flip_flop { period_d; values } -> [ Spam { period_d; values }; Silent ]
  | Two_faced_general { v1; at; _ } ->
      [ Partial_general { v = v1; at; targets = [ 0 ] }; Silent ]
  | Stagger_general { v; at; _ } ->
      [ Partial_general { v; at; targets = [ 0 ] }; Silent ]
  | Gate_edge { v; at } ->
      [ Partial_general { v; at; targets = [ 0 ] }; Silent ]
  | Partial_general { targets; v; at } when List.length targets > 1 ->
      [ Partial_general { v; at; targets = [ List.hd targets ] }; Silent ]
  | Partial_general _ -> [ Silent ]
  (* A scripted transcript shrinks one step at a time, from the end — later
     steps usually depend on the reactions to earlier ones. *)
  | Scripted { steps = [] } -> [ Silent ]
  | Scripted { steps } ->
      [
        Scripted
          { steps = List.filteri (fun i _ -> i < List.length steps - 1) steps };
        Silent;
      ]

let generate ?(edges = false) rng ~values ~at_lo ~at_hi ~n =
  let v () = Rng.pick_list rng values in
  let at () = Rng.float_in_range rng ~lo:at_lo ~hi:at_hi in
  (* With [edges] the menu grows a 9th entry; without it the draw sequence is
     bit-identical to the historical 8-way dispatch, which the legacy corpus
     digests depend on. *)
  match (if edges then Rng.int rng 9 else Rng.int rng 8) with
  | 0 -> Silent
  | 1 -> Spam { period_d = Rng.float_in_range rng ~lo:4.0 ~hi:16.0; values }
  | 2 -> Mimic { delay_d = Rng.float_in_range rng ~lo:0.5 ~hi:4.0 }
  | 3 -> Two_faced_general { v1 = v (); v2 = v () ^ "'"; at = at () }
  | 4 ->
      Stagger_general
        { v = v (); at = at (); gap_d = Rng.float_in_range rng ~lo:0.5 ~hi:4.0 }
  | 5 ->
      let k = 1 + Rng.int rng (max 1 (n - 1)) in
      let targets = Array.to_list (Rng.subset rng ~k (Array.init n Fun.id)) in
      Partial_general { v = v (); at = at (); targets = List.sort compare targets }
  | 6 -> Equivocator { v1 = v (); v2 = v () ^ "'" }
  | 7 -> Flip_flop { period_d = Rng.float_in_range rng ~lo:8.0 ~hi:24.0; values }
  | _ -> Gate_edge { v = v (); at = at () }

let pp ppf t =
  match t with
  | Silent -> Fmt.string ppf "silent"
  | Spam { period_d; values } ->
      Fmt.pf ppf "spam(period=%gd, %d values)" period_d (List.length values)
  | Mimic { delay_d } -> Fmt.pf ppf "mimic(delay=%gd)" delay_d
  | Two_faced_general { v1; v2; at } ->
      Fmt.pf ppf "two-faced(%S/%S at %g)" v1 v2 at
  | Stagger_general { v; at; gap_d } ->
      Fmt.pf ppf "stagger(%S at %g, gap=%gd)" v at gap_d
  | Partial_general { v; at; targets } ->
      Fmt.pf ppf "partial(%S at %g -> %a)" v at
        Fmt.(list ~sep:comma int)
        targets
  | Equivocator { v1; v2 } -> Fmt.pf ppf "equivocator(%S/%S)" v1 v2
  | Flip_flop { period_d; values } ->
      Fmt.pf ppf "flip-flop(period=%gd, %d values)" period_d (List.length values)
  | Gate_edge { v; at } -> Fmt.pf ppf "gate-edge(%S at %g)" v at
  | Scripted { steps } -> Fmt.pf ppf "scripted(%d steps)" (List.length steps)

let equal (a : t) (b : t) = a = b
