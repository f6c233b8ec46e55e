(* Small-model configurations for the bounded checker.

   A configuration fixes everything about a tiny world except the choices the
   checker branches over: the Byzantine script menus and the delivery-delay
   lattice. The choice space is explicit and finite by construction — the
   checker is exhaustive over *this* space up to its depth bound, which is the
   honest statement a bounded model checker can make (DESIGN.md §10).

   Delays branch per *class*, not per send: [branch] maps a send to a group
   key, and every send in the same group shares one lattice choice within a
   run. Grouping is what keeps the space enumerable (branching every delivery
   independently is 2^hundreds); the key function is part of the
   configuration, i.e. part of the claim. *)

open Ssba_core.Types
module Params = Ssba_core.Params
module Scenario = Ssba_harness.Scenario

type script_step = {
  step_at : float;  (* absolute engine real time *)
  step_label : string;
  options : (node_id option * message) list list;
      (* menu of send batches; the checker branches over the index (option 0
         is the default path), then performs every send of the chosen batch.
         A [None] destination broadcasts. A single-option step never
         branches: it is the deterministic part of the script. *)
}

type byz = { byz_id : node_id; steps : script_step list }

type t = {
  name : string;
  params : Params.t;
  byz : byz list;
  proposals : Scenario.proposal list;
  session_capacity : int option;
  blackout : bool;
  horizon : float;
  default_delay : float;
  lattice : float array;
      (* delay options for branched deliveries; index 0 is explored first *)
  lattices : (string * float array) list;
      (* per-class lattice overrides, keyed by the [branch] key; classes not
         listed here fall back to [lattice]. Lets one config straddle a
         comparison boundary on exactly the deliveries that feed it while
         keeping every other class binary. *)
  branch : src:node_id -> dst:node_id -> message -> string option;
      (* [Some key]: the send's delay is a lattice choice shared by every
         send mapping to [key] within the run; [None]: [default_delay].
         Deliveries to Byzantine nodes are additionally filtered out when
         partial-order reduction is on (the scripts are input-oblivious, so
         those deliveries commute with everything). *)
}

let lattice_for t key =
  match List.assoc_opt key t.lattices with
  | Some l -> l
  | None -> t.lattice

let byz_ids t = List.map (fun b -> b.byz_id) t.byz
let is_byz t id = List.exists (fun b -> b.byz_id = id) t.byz

let correct_ids t =
  List.filter (fun id -> not (is_byz t id)) (List.init t.params.Params.n Fun.id)

(* ----- smoke: n=4/f=1, natural capacity, a correct proposal plus a meddling
   Byzantine General. The paper's theorems say no oracle can fire anywhere in
   this space; the CI gate holds the checker to that. *)
let smoke () =
  let params = Params.default ~f:1 4 in
  let d = params.Params.d in
  let dd x = x *. d in
  let ia kind v = Ia { kind; g = 3; v } in
  {
    name = "smoke";
    params;
    byz =
      [
        {
          byz_id = 3;
          steps =
            [
              {
                step_at = dd 1.0;
                step_label = "g3";
                options =
                  [
                    [];
                    (* a partial initiation: engaged nodes must all abort *)
                    [
                      (Some 0, Initiator { g = 3; v = "x" });
                      (Some 1, Initiator { g = 3; v = "x" });
                    ];
                    (* unbacked support: must decay without a quorum *)
                    [ (None, ia Support "x") ];
                  ];
              };
            ];
        };
      ];
    proposals = [ { Scenario.g = 0; v = "a"; at = dd 0.5 } ];
    session_capacity = None;
    blackout = true;
    horizon = dd 34.0;
    default_delay = dd 0.4;
    lattice = [| dd 0.4; dd 1.1 |];
    lattices = [];
    branch =
      (fun ~src:_ ~dst msg ->
        match msg with
        | Ia { kind = Support; g; v; _ } ->
            Some ("S" ^ string_of_int g ^ ">" ^ string_of_int dst ^ ":" ^ v)
        | Ia { kind = Ready; g; v; _ } ->
            Some ("R" ^ string_of_int g ^ ">" ^ string_of_int dst ^ ":" ^ v)
        | _ -> None);
  }

(* ----- split: the IA-4 split-decision hunt (ISSUE 7 / ROADMAP item 3).

   Capacity 2 puts the session table under pressure; two interleaved correct
   proposals (g=0, g=2) force per-node LRU divergence, steered by the delay
   choices on Ready deliveries and on g=2's Initiator deliveries. The
   Byzantine General g=3 drives value v1 to a decision at node 1 while nodes
   0 and 2 lose their g=3 session to eviction *before* accepting, then
   re-initiates v2 towards exactly those nodes. With the re-initiation
   blackout on, the Separation guard (which survives eviction) blocks the
   second engagement; with the knob off, the checker must find the run where
   node 1 decides v1 and nodes 0/2 decide v2 with anchors within 4d — the
   split PR-6 closed.

   Eviction under scarcity also strands the correct proposals mid-flight at
   some nodes, so relay ("decided but peer never returned") violations are
   reachable in this config regardless of the knob — the sensitivity verdict
   therefore counts *split decisions*, not raw violations. *)
let split ~blackout () =
  let params = Params.default ~f:1 4 in
  let d = params.Params.d in
  let dd x = x *. d in
  let ia kind v = Ia { kind; g = 3; v } in
  let to_01 m = [ (Some 0, m); (Some 1, m) ] in
  let to_02 m = [ (Some 0, m); (Some 2, m) ] in
  {
    name = (if blackout then "split-blackout-on" else "split-blackout-off");
    params;
    byz =
      [
        {
          byz_id = 3;
          steps =
            [
              (* the v1 wave: initiate towards 0 and 1 only, and feed the
                 support/approve quorums so exactly node 1 can accept (node 2
                 sees two supports — enough for L1's anchor recording and the
                 session-value note, not enough to approve). *)
              {
                step_at = dd 0.05;
                step_label = "init1";
                options = [ to_01 (Initiator { g = 3; v = "v1" }) ];
              };
              { step_at = dd 0.6; step_label = "sup1"; options = [ to_01 (ia Support "v1") ] };
              { step_at = dd 1.0; step_label = "app1"; options = [ to_01 (ia Approve "v1") ] };
              (* third Ready for node 1's accept quorum *)
              { step_at = dd 1.5; step_label = "rdy1"; options = [ [ (Some 1, ia Ready "v1") ] ] };
              (* the re-initiation menu: stay silent, push a fresh value at
                 the evicted nodes, or retry v1 (which the per-value
                 freshness guard last_gm blocks even without the blackout) *)
              {
                step_at = dd 3.2;
                step_label = "reinit";
                options =
                  [
                    [];
                    to_02 (Initiator { g = 3; v = "v2" });
                    to_02 (Initiator { g = 3; v = "v1" });
                  ];
              };
              { step_at = dd 3.7; step_label = "sup2"; options = [ to_02 (ia Support "v2") ] };
              { step_at = dd 4.0; step_label = "app2"; options = [ to_02 (ia Approve "v2") ] };
              { step_at = dd 4.3; step_label = "rdy2"; options = [ to_02 (ia Ready "v2") ] };
            ];
        };
      ];
    proposals =
      [
        { Scenario.g = 0; v = "p0"; at = dd 0.9 };
        { Scenario.g = 2; v = "p2"; at = dd 1.0 };
      ];
    session_capacity = Some 2;
    blackout;
    horizon = dd 40.0;
    default_delay = dd 0.4;
    lattice = [| dd 0.4; dd 1.2 |];
    lattices = [];
    branch =
      (fun ~src:_ ~dst msg ->
        match msg with
        | Ia { kind = Ready; g = 3; v; _ } ->
            Some ("R>" ^ string_of_int dst ^ ":" ^ v)
        | Initiator { g = 2; _ } -> Some ("I2>" ^ string_of_int dst)
        | _ -> None);
  }

(* ----- commute probe: two menu options that perform the *same two sends in
   opposite order*, then a second menu step while both messages are still in
   flight. Under partial-order reduction the state fingerprints at the second
   step must coincide (canonical in-flight encoding) and the checker prunes
   one branch; without it the raw insertion order keeps them apart. The
   canonicalization unit tests drive this config directly. *)
let commute_probe () =
  let params = Params.default ~f:1 4 in
  let d = params.Params.d in
  let dd x = x *. d in
  let m0 = Initiator { g = 3; v = "x" } in
  let m1 = Ia { kind = Support; g = 3; v = "x" } in
  {
    name = "commute-probe";
    params;
    byz =
      [
        {
          byz_id = 3;
          steps =
            [
              {
                step_at = dd 1.0;
                step_label = "order";
                options =
                  [ [ (Some 0, m0); (Some 1, m1) ]; [ (Some 1, m1); (Some 0, m0) ] ];
              };
              {
                step_at = dd 1.1;
                step_label = "probe";
                options = [ []; [ (Some 2, m1) ] ];
              };
            ];
        };
      ];
    proposals = [];
    session_capacity = None;
    blackout = true;
    horizon = dd 20.0;
    default_delay = dd 0.4;
    lattice = [| dd 0.4 |];
    lattices = [];
    branch = (fun ~src:_ ~dst:_ _ -> None);
  }

(* ----- knife: the block-R gate boundary, exhaustively (ISSUE 8 / E15).

   No Byzantine sender at all — node 3 is simply silent, so n-f = 3 and the
   three correct nodes 0..2 are exactly the quorum. Node 0 proposes once;
   every delivery class that feeds the I-accept time of a correct node gets
   its own lattice, built so the resulting block-R slack [tau_q - tau_g]
   lands on {3.99d, 4d, 4.01d, 4.55d, 4.95d} at nodes 1 and 2 while node 0
   stays at <= 3.7d and always decides round 0.

   The slack arithmetic (per-class delay sharing makes all arrival times
   common across correct nodes; t0 = the proposal time):
     inv_j    = t0 + I_j            Initiator arrival (class I>j)
     tau_g_j  = inv_j - d           block K2's i_value; L1's refresh
                                    (2nd support arrival - 2d) stays below
     s3       = t0 + 0.9d + DS0     third Support arrival (node 0's, S0)
     a3       = s3 + DA0            third Approve arrival (node 0's, A0)
     tau_q_j  = a3 + DR_j           Ready wave lands, N3/N4 accepts (R>j)
     slack_j  = 0.9d + DS0 + DA0 + DR_j + d - I_j
   At DS0 = DA0 = 0.9d, I_j = 0.05d the R>j lattice maps slack onto the
   probe points above: 0.34d/0.35d/0.36d straddle the 4d gate (the 0.35d
   point lands on the boundary up to one float ulp — either side is a sound
   outcome, and the exact <=-semantics are pinned by unit tests), 1.3d
   probes the 5d gate from 4.95d with a safe margin (exactly 5d would make
   the Widen verdict hang on an ulp).

   Under [Legacy], runs where *both* nodes 1 and 2 exceed 4d strand: block S
   never fires because the only broadcaster is node 0 — the General, whom
   block S excludes — so both abort at the block-U boundary while node 0
   decides alone: the 7404/173 stranded-abort, rediscovered exhaustively.
   Under [Widen] every slack is < 5d and the space must exhaust clean. The
   CLI's knife verdict asserts exactly this split. *)
let knife () =
  let params = Params.default ~f:1 4 in
  let d = params.Params.d in
  let dd x = x *. d in
  let edge = [| dd 0.1; dd 0.34; dd 0.35; dd 0.36; dd 0.9; dd 1.3 |] in
  {
    name = "knife";
    params;
    byz = [ { byz_id = 3; steps = [] } ];
    proposals = [ { Scenario.g = 0; v = "a"; at = dd 0.5 } ];
    session_capacity = None;
    blackout = true;
    horizon = dd 32.0;
    default_delay = dd 0.1;
    lattice = [| dd 0.9 |];
    lattices =
      [
        ("I>1", [| dd 0.05; dd 0.9 |]);
        ("I>2", [| dd 0.05; dd 0.9 |]);
        ("S0", [| dd 0.05; dd 0.9 |]);
        ("A0", [| dd 0.1; dd 0.9 |]);
        ("R>0", [| dd 0.1; dd 0.9 |]);
        ("R>1", edge);
        ("R>2", edge);
      ];
    branch =
      (fun ~src ~dst msg ->
        match msg with
        | Initiator { g = 0; _ } -> Some ("I>" ^ string_of_int dst)
        | Ia { kind = Support; g = 0; _ } when src = 0 -> Some "S0"
        | Ia { kind = Approve; g = 0; _ } when src = 0 -> Some "A0"
        | Ia { kind = Ready; g = 0; _ } -> Some ("R>" ^ string_of_int dst)
        | _ -> None);
  }
