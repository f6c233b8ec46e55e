(* The round-stretcher attack (experiment E6): force Theta(f') termination.

   The paper claims agreement is reached within O(f') communication rounds,
   where f' <= f is the number of *actual* concurrent faults. This module
   realizes the matching adversary: with f' colluders (the General plus
   f' - 1 helpers) it delays termination to ~ (2 f' + 5) Phi, capped by block
   U's Delta_agr deadline. The attack has two stages, both derived from the
   quorum arithmetic of Figures 1-3 (n - f strong and n - 2f weak
   thresholds):

   1. IA-stretch — block the R fast path at every correct node by making the
      I-accept land more than 4d after the anchor:
      - the General invites only n - f - f' correct nodes, so the support
        quorum (n - f within a 2d window) completes only when the colluders'
        supports arrive, which they delay by almost 2d and send only to a
        subset F1 of n - f - f' correct nodes;
      - only F1 can pass L3, so the approve quorum (n - f within 3d) in turn
        completes only with the colluders' approves, delayed by almost 3d and
        sent only to F2 (|F2| = n - f - f');
      - the ready stage cannot be starved (block N's untimed n - 2f
        amplification is designed to defeat exactly that), so the I-accept
        happens everywhere ~ t0 + 5d with anchors >= t0 - 2d: the R-window
        tau - tau_g <= 4d fails at every correct node.

   2. Broadcaster drip — with R blocked, correct nodes sit in blocks S/T.
      Block T aborts at boundary (2r+1) Phi unless r - 1 broadcasters are
      known. The colluders stage exactly one new broadcaster per round —
      *without* ever letting a broadcast be accepted (an accepted round-1
      broadcast would let S decide immediately):
      - colluder b_j sends (init, b_j, v, j) to only n - 2f - f' correct
        nodes (group A);
      - every colluder tops up A's echoes towards a group F3 of exactly
        n - 2f correct nodes; F3 reaches the n - 2f echo threshold and sends
        init', every correct node then sees n - 2f init' and records b_j as a
        broadcaster (block Y1);
      - but the n - f thresholds for X-accept (echoes) and echo' (init') are
        out of reach: n - 2f + f' < n - f for f' < f, and for f' = f the
        colluders simply send no init'. No (p, v, k) is ever accepted, so S
        never fires.
      The first T boundary with more than f' - 1 required broadcasters is
      r = f' + 2, so every correct node aborts at
      tau_g + (2 f' + 5) Phi — linear in f', capped by U at (2f + 1) Phi.

   The choreography is expressed in absolute simulator time, so the scenario
   must use (near-)perfect clocks and a fixed small network delay; the E6
   scenario sets both up. The attack compiles to a cast: each colluder runs
   a [Catalog.Scripted] transcript of its own sends. *)

open Ssba_core.Types
module Params = Ssba_core.Params

type t = {
  params : Params.t;
  colluders : node_id list;  (* head acts as the General *)
  correct : node_id list;
  v : value;
  t0 : float;
  eps : float;  (* the scenario's fixed network delay *)
  complete_round : bool;
      (* decide variant: the last colluder also performs an honest round-1
         broadcast (init to all, in time for the X accept), so block S
         decides the Byzantine value at round 1 instead of T/U aborting —
         still unanimously, which the tests assert *)
}

let make ?(complete_round = false) ~params ~colluders ~v ~t0 ~eps () =
  (match colluders with
  | [] -> invalid_arg "Round_stretcher.make: need at least the faulty General"
  | _ -> ());
  if List.length colluders > params.Params.f then
    invalid_arg "Round_stretcher.make: more colluders than the fault budget";
  let correct =
    List.filter
      (fun i -> not (List.mem i colluders))
      (List.init params.Params.n (fun i -> i))
  in
  { params; colluders; correct; v; t0; eps; complete_round }

let take k l = List.filteri (fun i _ -> i < k) l

(* Expected number of T-boundary rounds the drip survives, and the local-time
   abort bound, for assertions in tests and experiment tables. *)
let expected_abort_phase t =
  min ((2 * List.length t.colluders) + 5) ((2 * t.params.Params.f) + 1)

(* In the decide variant block S fires at round 1, within deadline 3 Phi. *)
let expected_decide_phase _t = 3

(* The choreography as (colluder, (time, destination, message)) sends, in
   the order the attack performs them. *)
let sends t =
  let p = t.params in
  let d = p.Params.d in
  let phi = p.Params.phi in
  let fprime = List.length t.colluders in
  let g = List.hd t.colluders in
  let n_inv = (p.Params.n - p.Params.f) - fprime in
  let invited = take n_inv t.correct in
  let f1 = invited and f2 = invited in
  let f3 = take (Params.weak_quorum p) t.correct in
  let group_a = take (Params.weak_quorum p - fprime) t.correct in
  let group ~src ~dsts time msg =
    List.map (fun dst -> (src, (time, Some dst, msg))) dsts
  in
  let all_colluders ~dsts time msg =
    List.concat_map (fun c -> group ~src:c ~dsts time msg) t.colluders
  in
  (* Stage 1: IA-stretch. *)
  let t_sup = t.t0 +. (2.0 *. d) -. (4.0 *. t.eps) in
  (* F1's approves go out once the colluder supports land, ~ t_sup + eps. *)
  let t_app = t_sup +. t.eps +. (3.0 *. d) -. (4.0 *. t.eps) in
  let stretch =
    group ~src:g ~dsts:invited t.t0 (Initiator { g; v = t.v })
    @ all_colluders ~dsts:f1 t_sup (Ia { kind = Support; g; v = t.v })
    @ all_colluders ~dsts:f2 t_app (Ia { kind = Approve; g; v = t.v })
  in
  (* Stage 2: broadcaster drip, one colluder per round j = 1..f'. Anchors sit
     in [t0 - 2d, t0 - d + eps]; scheduling against the earliest keeps every
     arrival inside all correct nodes' W/X/Y deadlines. *)
  let anchor_est = t.t0 -. (2.0 *. d) in
  let drip =
    List.concat
      (List.mapi
         (fun idx b ->
           let j = idx + 1 in
           let t_init = anchor_est +. (float_of_int (2 * j) *. phi) -. (2.0 *. d) in
           group ~src:b ~dsts:group_a t_init (Mb { kind = Init; p = b; g; v = t.v; k = j })
           @ all_colluders ~dsts:f3 (t_init +. t.eps)
               (Mb { kind = Echo; p = b; g; v = t.v; k = j }))
         t.colluders)
  in
  (* Decide variant: an honest round-1 broadcast by the last colluder,
     delivered to everyone well before the W deadline (anchor + 2 Phi), so
     every correct node echoes, the echo quorum completes an X accept within
     the S(1) deadline and block S decides the Byzantine value at round 1. *)
  let honest =
    if t.complete_round then
      let b = List.nth t.colluders (fprime - 1) in
      let t_init = anchor_est +. (2.0 *. phi) -. (6.0 *. d) in
      [ (b, (t_init, None, Mb { kind = Init; p = b; g; v = t.v; k = 1 })) ]
    else []
  in
  stretch @ drip @ honest

(* The runner installs a cast in ascending id order and a scripted entry
   schedules its steps in list order. No two groups of sends share a time, so
   each colluder's steps in time order reproduce the attack's send order
   exactly when the colluders are listed in ascending id. *)
let cast t =
  let sends = sends t in
  List.map
    (fun c ->
      let steps = List.filter_map (fun (src, step) -> if src = c then Some step else None) sends in
      let by_time (a, _, _) (b, _, _) = compare a b in
      (c, Catalog.Scripted { steps = List.stable_sort by_time steps }))
    (List.sort compare t.colluders)
