(* The adversary vocabulary: an enumerable strategy catalog and its
   interpreter.

   Every scenario cast is a list of these entries. Each constructor carries
   exactly the parameters of one attack, with durations in units of d so an
   entry is meaningful under any Params.t. [install] runs an entry on a node;
   the fuzzer draws entries with [generate], persists them through
   Ssba_fuzz.Spec's JSON codec, and walks [simplify] when minimizing a
   failing scenario.

   An installed entry owns one node id. It gets raw access to the link — it
   may send any payload at any time, but only under its own authenticated
   identity (paper §2: sender identity cannot be tampered with once the
   network is correct). catalog.mli documents the attack class each
   constructor exercises. *)

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
  | Scripted of { steps : (float * node_id option * message) list }

type env = {
  self : node_id;
  params : Ssba_core.Params.t;
  engine : Ssba_sim.Engine.t;
  rng : Rng.t;
  link : message Ssba_net.Link.t;
      (* the same sending surface correct nodes use: the raw network, or the
         reliable transport when the scenario runs over a faulty link *)
}

(* ----- helpers shared by the strategies --------------------------------- *)

let send env ~dst payload = Ssba_net.Link.send env.link ~src:env.self ~dst payload

let send_to env ~dsts payload = List.iter (fun dst -> send env ~dst payload) dsts

let send_all env payload = Ssba_net.Link.broadcast env.link ~src:env.self payload

let at env ~time f = Ssba_sim.Engine.schedule env.engine ~at:time f

let after env ~delay f = Ssba_sim.Engine.schedule_after env.engine ~delay f

(* Repeat forever with the given period (first firing after one period). *)
let every env ~period f =
  let rec tick () =
    f ();
    Ssba_sim.Engine.schedule_after env.engine ~delay:period tick
  in
  Ssba_sim.Engine.schedule_after env.engine ~delay:period tick

let on_message env f = Ssba_net.Link.set_handler env.link env.self f

(* Random plausible protocol message, for the spam strategies. *)
let random_message env ~values =
  let rng = env.rng in
  let n = env.params.Ssba_core.Params.n in
  let f = env.params.Ssba_core.Params.f in
  let g = Rng.int rng n in
  let v = Rng.pick_list rng values in
  match Rng.int rng 9 with
  | 0 -> Initiator { g; v }
  | 1 -> Ia { kind = Support; g; v }
  | 2 -> Ia { kind = Approve; g; v }
  | 3 -> Ia { kind = Ready; g; v }
  | c ->
      let kind = match c with 4 -> Init | 5 -> Echo | 6 -> Init2 | _ -> Echo2 in
      let p = Rng.int rng n in
      let k = 1 + Rng.int rng (max 1 (f + 1)) in
      Mb { kind; p; g; v; k }

let halves env =
  let n = env.params.Ssba_core.Params.n in
  let rec split acc_even acc_odd i =
    if i < 0 then (acc_even, acc_odd)
    else if i mod 2 = 0 then split (i :: acc_even) acc_odd (i - 1)
    else split acc_even (i :: acc_odd) (i - 1)
  in
  split [] [] (n - 1)

(* ----- the strategies ---------------------------------------------------- *)

let silent env = on_message env (fun _ -> ())

let spam ~period ~values env =
  on_message env (fun _ -> ());
  every env ~period (fun () -> send_all env (random_message env ~values))

(* Each distinct payload is re-sent at most once: without the cap, two mimics
   (or a mimic and an equivocator) amplify each other's output exponentially. *)
let mimic ~delay env =
  let seen : (message, unit) Hashtbl.t = Hashtbl.create 64 in
  on_message env (fun m ->
      let payload = m.Ssba_net.Msg.payload in
      match payload with
      | Initiator _ -> ()  (* cannot forge another General's identity *)
      | Ia _ | Mb _ ->
          if not (Hashtbl.mem seen payload) then begin
            Hashtbl.replace seen payload ();
            after env ~delay (fun () -> send_all env payload)
          end)

let two_faced_general ~v1 ~v2 ~at:time env =
  on_message env (fun _ -> ());
  let g = env.self in
  let d = env.params.Ssba_core.Params.d in
  at env ~time (fun () ->
      let evens, odds = halves env in
      send_to env ~dsts:evens (Initiator { g; v = v1 });
      send_to env ~dsts:odds (Initiator { g; v = v2 });
      (* Push both values through the support/approve/ready stages. *)
      after env ~delay:(0.5 *. d) (fun () ->
          send_to env ~dsts:evens (Ia { kind = Support; g; v = v1 });
          send_to env ~dsts:odds (Ia { kind = Support; g; v = v2 }));
      after env ~delay:(1.5 *. d) (fun () ->
          send_all env (Ia { kind = Approve; g; v = v1 });
          send_all env (Ia { kind = Approve; g; v = v2 }));
      after env ~delay:(2.5 *. d) (fun () ->
          send_all env (Ia { kind = Ready; g; v = v1 });
          send_all env (Ia { kind = Ready; g; v = v2 })))

let stagger_general ~v ~at:start ~gap env =
  on_message env (fun _ -> ());
  let g = env.self in
  let n = env.params.Ssba_core.Params.n in
  for dst = 0 to n - 1 do
    at env ~time:(start +. (float_of_int dst *. gap)) (fun () ->
        send env ~dst (Initiator { g; v }))
  done

let partial_general ~v ~at:time ~targets env =
  on_message env (fun _ -> ());
  let g = env.self in
  at env ~time (fun () ->
      send_to env ~dsts:targets (Initiator { g; v });
      (* The faulty General still supports its own value towards its
         targets, like a correct participant would. *)
      let d = env.params.Ssba_core.Params.d in
      after env ~delay:(0.5 *. d) (fun () ->
          send_to env ~dsts:targets (Ia { kind = Support; g; v })))

(* A faulty General that paces the Initiator-Accept stages so correct nodes'
   decisions land exactly on the protocol's comparison boundaries instead of
   safely inside them. One burst: Initiator at [at], Support a d later,
   Approve a d after that — anchoring every correct node early — then the
   Ready wave is withheld and released per destination, staggered from
   [at + 4d] across a 3d window to [at + 7d]. The resulting I-accepts probe
   block R's [tau - tau_g <= 4d] (or 5d) gate from both sides and stretch
   decision skew against the 3d deadline; the burst repeats at
   [at + 2 Delta_rmv + 9d], the same-value separation guard's own decay
   boundary, so the second initiation lands exactly where block K's guard
   flips from rejecting to admitting. *)
let gate_edge ~v ~at:first env =
  on_message env (fun _ -> ());
  let g = env.self in
  let p = env.params in
  let d = p.Ssba_core.Params.d in
  let n = p.Ssba_core.Params.n in
  let burst start =
    at env ~time:start (fun () -> send_all env (Initiator { g; v }));
    at env ~time:(start +. d) (fun () ->
        send_all env (Ia { kind = Support; g; v }));
    at env ~time:(start +. (2.0 *. d)) (fun () ->
        send_all env (Ia { kind = Approve; g; v }));
    let step = 3.0 *. d /. float_of_int (max 1 (n - 1)) in
    for dst = 0 to n - 1 do
      let off = (4.0 *. d) +. (float_of_int dst *. step) in
      at env ~time:(start +. off) (fun () ->
          send env ~dst (Ia { kind = Ready; g; v }))
    done
  in
  burst first;
  burst (first +. (2.0 *. p.Ssba_core.Params.delta_rmv) +. (9.0 *. d))

(* A Byzantine *participant* (not General): echoes support/approve/ready for
   value [v1] to one half and [v2] to the other, for any General it hears
   about — rate-limited to one burst per General per d, so colluding
   equivocators cannot amplify each other without bound. *)
let equivocator ~v1 ~v2 env =
  let last_burst : (general, float) Hashtbl.t = Hashtbl.create 8 in
  on_message env (fun m ->
      match m.Ssba_net.Msg.payload with
      | Initiator { g; _ } | Ia { g; _ } ->
          let now = Ssba_sim.Engine.now env.engine in
          let d = env.params.Ssba_core.Params.d in
          let recent =
            match Hashtbl.find_opt last_burst g with
            | Some t -> now -. t < d
            | None -> false
          in
          if not recent then begin
            Hashtbl.replace last_burst g now;
            let evens, odds = halves env in
            send_to env ~dsts:evens (Ia { kind = Support; g; v = v1 });
            send_to env ~dsts:odds (Ia { kind = Support; g; v = v2 });
            send_to env ~dsts:evens (Ia { kind = Approve; g; v = v1 });
            send_to env ~dsts:odds (Ia { kind = Approve; g; v = v2 });
            send_to env ~dsts:evens (Ia { kind = Ready; g; v = v1 });
            send_to env ~dsts:odds (Ia { kind = Ready; g; v = v2 })
          end
      | Mb _ -> ())

(* A fully scripted adversary: a fixed list of (absolute engine time,
   destination, payload) sends and nothing else. The model checker's
   counterexample export compiles a Byzantine node's chosen menu into this —
   a deterministic, input-oblivious transcript the fuzzer CLI can replay. *)
let scripted ~steps env =
  on_message env (fun _ -> ());
  List.iter
    (fun (time, dst, msg) ->
      at env ~time (fun () ->
          match dst with
          | None -> send_all env msg
          | Some dst -> send env ~dst msg))
    steps

let flip_flop ~period ~values env =
  on_message env (fun _ -> ());
  let noisy = ref false in
  every env ~period (fun () -> noisy := not !noisy);
  every env
    ~period:(period /. 8.0)
    (fun () -> if !noisy then send_all env (random_message env ~values))

let install ~d entry env =
  match entry with
  | Silent -> silent env
  | Spam { period_d; values } -> spam ~period:(period_d *. d) ~values env
  | Mimic { delay_d } -> mimic ~delay:(delay_d *. d) env
  | Two_faced_general { v1; v2; at } -> two_faced_general ~v1 ~v2 ~at env
  | Stagger_general { v; at; gap_d } ->
      stagger_general ~v ~at ~gap:(gap_d *. d) env
  | Partial_general { v; at; targets } -> partial_general ~v ~at ~targets env
  | Equivocator { v1; v2 } -> equivocator ~v1 ~v2 env
  | Flip_flop { period_d; values } -> flip_flop ~period:(period_d *. d) ~values env
  | Gate_edge { v; at } -> gate_edge ~v ~at env
  | Scripted { steps } -> scripted ~steps env

(* ----- the catalog as data ----------------------------------------------- *)

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
