(* Separation behaviours (Timeliness 4 / IA-4 and the decay rules): how far
   apart consecutive accepts for one General must be, driven through the fake
   context so time is fully controlled. n = 7, f = 2. *)

open Helpers
open Ssba_core
module Ia = Initiator_accept

let params = Params.default 7
let d = params.Params.d

type h = {
  fake : Fake.t;
  ctx : Types.ctx;
  ia : Ia.t;
  accepted : (Types.value * float) list ref;
}

let mk () =
  let fake, ctx = Fake.make params in
  let ia = Ia.create ~ctx ~g:0 () in
  let accepted = ref [] in
  Ia.set_on_accept ia (fun v ~tau_g -> accepted := (v, tau_g) :: !accepted);
  { fake; ctx; ia; accepted }

(* A successor session for the same General: the previous one was reset,
   evicted or garbage-collected, but the separation guard survives by
   reference — the exact situation the re-initiation blackout exists for. *)
let succ_session h =
  let ia = Ia.create ~guard:(Ia.guard h.ia) ~ctx:h.ctx ~g:0 () in
  Ia.set_on_accept ia (fun v ~tau_g -> h.accepted := (v, tau_g) :: !(h.accepted));
  { h with ia }

let feed h kind senders v =
  List.iter (fun s -> Ia.handle_message h.ia ~kind ~sender:s ~v) senders

let quorum = [ 1; 2; 3; 4; 5 ]

let drive h v =
  feed h Types.Support quorum v;
  Fake.advance h.fake (0.2 *. d);
  feed h Types.Approve quorum v;
  Fake.advance h.fake (0.2 *. d);
  feed h Types.Ready quorum v

let test_accept_then_other_value_blocked_within_4d () =
  (* IA-4a shape: after accepting "a", messages for "b" cannot produce an
     anchor within 4d — the earliest possible support for "b" is gated by
     last(G)'s Delta_0 - 6d = 7d expiry *)
  let h = mk () in
  Ia.handle_initiator h.ia "a";
  drive h "a";
  check_int "accepted a" 1 (List.length !(h.accepted));
  (* an immediate initiation for "b" is rejected by K1 (last(G) set) *)
  Fake.advance h.fake (4.0 *. d);
  Fake.clear_sent h.fake;
  Ia.handle_initiator h.ia "b";
  check_int "no support for b within last(G) expiry" 0
    (Fake.count_kind h.fake "support")

let test_same_value_reaccept_needs_decay () =
  (* IA-4b shape: a second accept of the same value cannot happen until
     last(G,m) decays (2 Delta_rmv + 9d). The separation is enforced on the
     *sender* side: block K refuses to re-support, and without n - 2f correct
     supports the f Byzantine nodes replaying everything cannot move the
     pipeline (the paper's Uniqueness proof: "past messages cannot be used
     again to reproduce another wave of decisions, unless a new correct node
     sends a new support"). *)
  let h = mk () in
  Ia.handle_initiator h.ia "a";
  drive h "a";
  h.accepted := [];
  Ia.reset h.ia;
  (* past the ignore window but far inside the last(G,m) expiry *)
  Fake.advance h.fake (20.0 *. d);
  Ia.cleanup h.ia;
  Fake.clear_sent h.fake;
  Ia.handle_initiator h.ia "a";
  check_int "K1 still blocked for the same value" 0 (Fake.count_kind h.fake "support");
  (* the f = 2 Byzantine nodes replay the whole pipeline; no weak quorum *)
  let byz = [ 5; 6 ] in
  feed h Types.Support byz "a";
  feed h Types.Approve byz "a";
  feed h Types.Ready byz "a";
  check_bool "f replaying nodes cannot re-accept" true (!(h.accepted) = []);
  check_int "nor trigger any send" 0 (List.length h.fake.Fake.sent)

let test_same_value_reaccept_after_full_decay () =
  let h = mk () in
  Ia.handle_initiator h.ia "a";
  drive h "a";
  h.accepted := [];
  Ia.reset h.ia;
  (* wait out last(G,m) (2 Drmv + 9d) and last(G) with cleanup ticks *)
  let expiry = (2.0 *. params.Params.delta_rmv) +. (10.0 *. d) in
  let steps = int_of_float (expiry /. d) + 2 in
  for _ = 1 to steps do
    Fake.advance h.fake d;
    Ia.cleanup h.ia
  done;
  Fake.clear_sent h.fake;
  Ia.handle_initiator h.ia "a";
  check_int "K1 passes after full decay" 1 (Fake.count_kind h.fake "support");
  drive h "a";
  (match !(h.accepted) with
  | [ ("a", _) ] -> ()
  | _ -> Alcotest.fail "expected exactly one fresh accept")

let test_ready_flag_decays () =
  (* the ready_{G,m} flag must expire after Delta_rmv: stale readiness plus
     fresh ready messages alone must not accept *)
  let h = mk () in
  feed h Types.Approve [ 1; 2; 3 ] "a";
  check_bool "flag set" true (Ia.ready_flag_fresh h.ia "a");
  Fake.advance h.fake (params.Params.delta_rmv +. d);
  Ia.cleanup h.ia;
  check_bool "flag decayed" false (Ia.ready_flag_fresh h.ia "a");
  feed h Types.Ready quorum "a";
  check_bool "no accept on stale readiness" true (!(h.accepted) = [])

let test_i_value_decays () =
  let h = mk () in
  Ia.handle_initiator h.ia "a";
  check_bool "i_value live" true (Ia.i_value h.ia "a" <> None);
  Fake.advance h.fake (params.Params.delta_rmv +. d);
  check_bool "i_value expired (freshness check)" true (Ia.i_value h.ia "a" = None)

(* ---- the re-initiation blackout (sender side of the IA-4 fix) ---------- *)

(* An engagement for "a" whose session is then destroyed (no accept, so no
   last(G)); a re-initiation for "b" through a successor session is judged
   purely by the guard. *)
let blackout_case ~gap_in_d ~blocked () =
  let h = mk () in
  Ia.handle_initiator h.ia "a";
  check_int "engaged a" 1 (Fake.count_kind h.fake "support");
  Fake.advance h.fake (gap_in_d *. d);
  let h = succ_session h in
  Ia.cleanup h.ia;
  Fake.clear_sent h.fake;
  Ia.handle_initiator h.ia "b";
  check_int
    (Printf.sprintf "support for b at gap %.0fd" gap_in_d)
    (if blocked then 0 else 1)
    (Fake.count_kind h.fake "support")

let test_blackout_under_1d = blackout_case ~gap_in_d:0.5 ~blocked:true
let test_blackout_exactly_1d = blackout_case ~gap_in_d:1.0 ~blocked:true

(* Past the per-send rate limit (1d) but inside the blackout window: only the
   guard's [session_value] stands between the 2027/133 shape and a second
   wave of supports. *)
let test_blackout_mid_window = blackout_case ~gap_in_d:2.0 ~blocked:true

let test_blackout_past_separation_window =
  (* session_value expires at Delta_rmv = 37d; beyond it a fresh initiation
     is legitimate again *)
  blackout_case ~gap_in_d:(params.Params.delta_rmv /. d +. 1.0) ~blocked:false

let test_blackout_keeps_relay_value_blind () =
  (* IA-3 must survive the fix: a node engaged on the losing value of a
     two-faced General still relays — and accepts — the winning one. The
     blackout gates block K only. *)
  let h = mk () in
  Ia.handle_initiator h.ia "a";
  Fake.advance h.fake (2.0 *. d);
  let h = succ_session h in
  Fake.clear_sent h.fake;
  drive h "b";
  (match !(h.accepted) with
  | [ ("b", _) ] -> ()
  | _ -> Alcotest.fail "expected the relay path to accept \"b\"")

(* ---- the guard against its reference model ----------------------------- *)

(* Random operation sequences over one to four values, applied to the
   current [Separation] and to [Ref_separation] (the four-hashtable guard
   every pinned digest was recorded under). After every step each query and
   the fingerprint bytes must agree. Stamps are drawn relative to the
   current time: recent, in the future, far in the past, or exactly
   [now -. e] for each expiry horizon [e] the guard uses; time advances by
   multiples of d/64.

   Under the default parameters d is not a binary fraction, so [now -. s]
   rarely lands exactly on a horizon. The second run therefore uses
   d = 2^-10 with no drift or skew: every horizon is then a small multiple
   of d, all stamp arithmetic is exact, and each [<] / [<=] boundary is hit
   exactly. *)

type stamp =
  | Recent of float  (* now - x d *)
  | Future of float  (* now + x d *)
  | Edge of int  (* now - (horizons p).(i) *)
  | Far  (* far past *)

type op =
  | Set_gm of int * stamp
  | Plant_gm of int * stamp * stamp
  | Send of Types.ia_kind * int * stamp
  | Note of int
  | Clear_sv
  | Scalar of int * stamp option  (* last_g, invoked_at, l4_at, m4_at, n4_at *)
  | Sv of int * stamp
  | Cleanup
  | Advance of float  (* x d *)

let pool = [| "m"; "a"; "zz"; "ab" |]

let horizons p =
  let d = p.Params.d in
  let e = Separation.last_gm_expiry p in
  [|
    e +. d;
    e;
    Separation.last_g_expiry p;
    Separation.session_value_expiry p;
    2.0 *. p.Params.delta_rmv;
    p.Params.delta_rmv;
    d;
  |]

let at_of p now = function
  | Recent x -> now -. (x *. p.Params.d)
  | Future x -> now +. (x *. p.Params.d)
  | Edge i -> now -. (horizons p).(i)
  | Far -> now -. (10.0 *. p.Params.delta_rmv)

let gen_ops =
  QCheck.Gen.(
    int_range 1 4 >>= fun nvals ->
    let value = int_bound (nvals - 1) in
    let frac hi = map (fun k -> float_of_int k /. 64.0) (int_bound (hi * 64)) in
    let stamp =
      frequency
        [
          (4, map (fun x -> Recent x) (frac 3));
          (1, map (fun x -> Future x) (frac 2));
          (3, map (fun i -> Edge i) (int_bound 6));
          (1, return Far);
        ]
    in
    let kind = oneofl [ Types.Support; Types.Approve; Types.Ready ] in
    list_size (int_range 1 60)
      (frequency
         [
           (4, map2 (fun v s -> Set_gm (v, s)) value stamp);
           (1, map3 (fun v a b -> Plant_gm (v, a, b)) value stamp stamp);
           (4, map3 (fun k v s -> Send (k, v, s)) kind value stamp);
           (2, map (fun v -> Note v) value);
           (1, return Clear_sv);
           (2, map2 (fun i s -> Scalar (i, s)) (int_bound 4) (opt stamp));
           (1, map2 (fun v s -> Sv (v, s)) value stamp);
           (3, return Cleanup);
           (4, map (fun x -> Advance x) (frac 2));
           (1, map (fun k -> Advance (float_of_int k)) (int_range 10 90));
         ]))

let print_ops ops =
  let st = function
    | Recent x -> Printf.sprintf "now-%gd" x
    | Future x -> Printf.sprintf "now+%gd" x
    | Edge i -> Printf.sprintf "edge%d" i
    | Far -> "far"
  in
  String.concat "; "
    (List.map
       (function
         | Set_gm (v, s) -> Printf.sprintf "gm %s %s" pool.(v) (st s)
         | Plant_gm (v, a, b) -> Printf.sprintf "plant %s %s %s" pool.(v) (st a) (st b)
         | Send (k, v, s) ->
             Printf.sprintf "sent %s %s %s" (Types.string_of_ia_kind k) pool.(v) (st s)
         | Note v -> Printf.sprintf "note %s" pool.(v)
         | Clear_sv -> "clear"
         | Scalar (i, s) ->
             Printf.sprintf "scalar%d %s" i (match s with None -> "-" | Some s -> st s)
         | Sv (v, s) -> Printf.sprintf "sv %s %s" pool.(v) (st s)
         | Cleanup -> "cleanup"
         | Advance x -> Printf.sprintf "+%gd" x)
       ops)

let apply p cur rf now = function
  | Set_gm (v, s) ->
      let at = at_of p now s in
      Separation.set_last_gm cur pool.(v) ~at;
      Ref_separation.set_last_gm rf pool.(v) ~at
  | Plant_gm (v, a, b) ->
      let a = at_of p now a and b = at_of p now b in
      Separation.plant_last_gm cur pool.(v) [ a; b ];
      (* what the old [Initiator_accept.scramble] did *)
      let sets = Time_set.create () in
      Time_set.add sets a;
      Time_set.add sets b;
      Hashtbl.replace rf.Ref_separation.last_gm pool.(v) sets
  | Send (k, v, s) ->
      let at = at_of p now s in
      Separation.record_send cur k pool.(v) ~at;
      Hashtbl.replace (Ref_separation.sent_tbl rf k) pool.(v) at
  | Note v ->
      Separation.note_session_value cur ~params:p ~now pool.(v);
      Ref_separation.note_session_value rf ~params:p ~now pool.(v)
  | Clear_sv ->
      Separation.clear_session_value cur;
      Ref_separation.clear_session_value rf
  | Scalar (i, s) -> (
      let x = Option.map (at_of p now) s in
      match i with
      | 0 ->
          cur.Separation.last_g <- x;
          rf.Ref_separation.last_g <- x
      | 1 ->
          cur.Separation.invoked_at <- x;
          rf.Ref_separation.invoked_at <- x
      | 2 ->
          cur.Separation.l4_at <- x;
          rf.Ref_separation.l4_at <- x
      | 3 ->
          cur.Separation.m4_at <- x;
          rf.Ref_separation.m4_at <- x
      | _ ->
          cur.Separation.n4_at <- x;
          rf.Ref_separation.n4_at <- x)
  | Sv (v, s) ->
      let x = Some (pool.(v), at_of p now s) in
      cur.Separation.session_value <- x;
      rf.Ref_separation.session_value <- x
  | Cleanup ->
      Separation.cleanup cur ~params:p ~now;
      Ref_separation.cleanup rf ~params:p ~now
  | Advance _ -> ()

(* Every query, per value and kind where it takes one, plus the bytes. *)
let disagreement p cur rf now =
  let fails = ref [] in
  let agree what a b = if a <> b then fails := what :: !fails in
  Array.iter
    (fun v ->
      List.iter
        (fun at ->
          agree
            (Printf.sprintf "last_gm_defined_at %s %h" v at)
            (Separation.last_gm_defined_at cur ~params:p v ~at)
            (Ref_separation.last_gm_defined_at rf ~params:p v ~at))
        [ now; now -. p.Params.d ];
      agree ("blackout_blocks " ^ v)
        (Separation.blackout_blocks cur ~params:p ~now v)
        (Ref_separation.blackout_blocks rf ~params:p ~now v);
      List.iter
        (fun k ->
          agree
            (Printf.sprintf "sent_within_d %s %s" (Types.string_of_ia_kind k) v)
            (Separation.sent_within_d cur ~params:p ~now k v)
            (Ref_separation.sent_within_d rf ~params:p ~now k v))
        [ Types.Support; Types.Approve; Types.Ready ])
    pool;
  agree "last_g_defined"
    (Separation.last_g_defined cur ~params:p ~now)
    (Ref_separation.last_g_defined rf ~params:p ~now);
  agree "support_sent_within_d"
    (Separation.support_sent_within_d cur ~params:p ~now)
    (Ref_separation.support_sent_within_d rf ~params:p ~now);
  agree "is_idle" (Separation.is_idle cur) (Ref_separation.is_idle rf);
  let fc = Buffer.create 128 and fr = Buffer.create 128 in
  Separation.fingerprint fc cur;
  Ref_separation.fingerprint fr rf;
  if Buffer.contents fc <> Buffer.contents fr then
    fails :=
      Printf.sprintf "fingerprint\n  cur %s\n  ref %s" (Buffer.contents fc)
        (Buffer.contents fr)
      :: !fails;
  !fails

let prop_matches_reference ~name p =
  QCheck.Test.make
    ~name:("guard answers and prints like the four-table reference, " ^ name)
    ~count:300
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      let cur = Separation.create () and rf = Ref_separation.create () in
      let now = ref 100.0 in
      List.iteri
        (fun i op ->
          (match op with Advance x -> now := !now +. (x *. p.Params.d) | _ -> ());
          apply p cur rf !now op;
          match disagreement p cur rf !now with
          | [] -> ()
          | fails ->
              QCheck.Test.fail_reportf "after step %d: %s" i
                (String.concat "; " fails))
        ops;
      true)

let exact_params = Params.default ~delta:(1.0 /. 1024.0) ~pi:0.0 ~rho:0.0 7

(* ---- the due time of a guard no session holds ------------------------- *)

(* [next_due] must never be late: from a random guard state (the operation
   sequences above, from a base time of 100 s or 1e6 s, swept or not at the
   final time t0), a cleanup at any time in [t0, next_due) changes nothing.
   Cleanup only ever removes state, so one fingerprint (with [is_idle])
   after a rising series of cleanups stands for all of them. The probes are
   t0, a grid of step d/8 and the last float below the due time. *)
let fingerprint_of g =
  let b = Buffer.create 128 in
  Separation.fingerprint b g;
  (Buffer.contents b, Separation.is_idle g)

let prop_next_due_never_late ~name p ~base =
  QCheck.Test.make ~name:("next_due is never late, " ^ name) ~count:300
    (QCheck.make
       ~print:(fun (ops, swept) ->
         Printf.sprintf "%s%s" (print_ops ops) (if swept then "; swept" else ""))
       QCheck.Gen.(pair gen_ops bool))
    (fun (ops, swept) ->
      let cur = Separation.create () and rf = Ref_separation.create () in
      let now = ref base in
      List.iter
        (fun op ->
          (match op with Advance x -> now := !now +. (x *. p.Params.d) | _ -> ());
          apply p cur rf !now op)
        ops;
      let t0 = !now in
      if swept then Separation.cleanup cur ~params:p ~now:t0;
      let due = Separation.next_due cur ~params:p ~now:t0 in
      let before = fingerprint_of cur in
      let step = p.Params.d /. 8.0 in
      let k = ref 0 in
      while !k < 2000 && t0 +. (float_of_int !k *. step) < due do
        Separation.cleanup cur ~params:p ~now:(t0 +. (float_of_int !k *. step));
        incr k
      done;
      if t0 < due then Separation.cleanup cur ~params:p ~now:(Float.pred due);
      if fingerprint_of cur <> before then
        QCheck.Test.fail_reportf "t0 %h, due %h: %s -> %s" t0 due (fst before)
          (fst (fingerprint_of cur));
      true)

(* The due time is the earliest expiry, from the oldest last(G,m) stamp,
   taken two ulps early; a stamp in the future or NaN makes it -infinity. *)
let test_next_due_values () =
  let p = exact_params in
  let now = 1e6 in
  let two_early x = Float.pred (Float.pred x) in
  let check_exact msg expected actual =
    check_str msg (Printf.sprintf "%h" expected) (Printf.sprintf "%h" actual)
  in
  let g = Separation.create () in
  check_bool "an idle guard is never due" true
    (Separation.next_due g ~params:p ~now > now +. 1e9);
  g.Separation.last_g <- Some (now -. 1.0);
  check_exact "last(G) alone"
    (two_early (now -. 1.0 +. Separation.last_g_expiry p))
    (Separation.next_due g ~params:p ~now);
  g.Separation.last_g <- None;
  Separation.set_last_gm g "a" ~at:(now -. 2.0);
  Separation.set_last_gm g "a" ~at:(now -. 1.0);
  check_exact "last(G,m): its oldest stamp"
    (two_early (now -. 2.0 +. (Separation.last_gm_expiry p +. p.Params.d)))
    (Separation.next_due g ~params:p ~now);
  Separation.record_send g Types.Approve "b" ~at:(now -. 100.0);
  check_exact "a send time expiring first"
    (two_early (now -. 100.0 +. (2.0 *. p.Params.delta_rmv)))
    (Separation.next_due g ~params:p ~now);
  Separation.record_send g Types.Ready "b" ~at:(now +. 1.0);
  check_exact "a send time in the future" neg_infinity
    (Separation.next_due g ~params:p ~now);
  let g = Separation.create () in
  g.Separation.invoked_at <- Some Float.nan;
  check_exact "a NaN stamp" neg_infinity (Separation.next_due g ~params:p ~now)

(* ---- NaN stamps decay ---------------------------------------------------- *)

(* A NaN in any scalar, or as a send time, is gone after one cleanup: each
   stamp is kept only if [s <= now && now -. s <= e], which NaN fails. *)
let test_nan_stamps_decay () =
  let now = 100.0 in
  let plants =
    [
      ("last_g", fun g -> g.Separation.last_g <- Some Float.nan);
      ("session_value", fun g -> g.Separation.session_value <- Some ("a", Float.nan));
      ("invoked_at", fun g -> g.Separation.invoked_at <- Some Float.nan);
      ("l4_at", fun g -> g.Separation.l4_at <- Some Float.nan);
      ("m4_at", fun g -> g.Separation.m4_at <- Some Float.nan);
      ("n4_at", fun g -> g.Separation.n4_at <- Some Float.nan);
      ("sent support", fun g -> Separation.record_send g Types.Support "a" ~at:Float.nan);
      ("sent approve", fun g -> Separation.record_send g Types.Approve "a" ~at:Float.nan);
      ("sent ready", fun g -> Separation.record_send g Types.Ready "a" ~at:Float.nan);
    ]
  in
  List.iter
    (fun (what, plant) ->
      let g = Separation.create () in
      plant g;
      check_bool (what ^ ": planted") false (Separation.is_idle g);
      Separation.cleanup g ~params ~now;
      check_bool (what ^ ": idle after one cleanup") true (Separation.is_idle g))
    plants

(* ---- what scramble plants into the guard, pinned ------------------------- *)

(* The fingerprints of 200 scrambled guards, before and after one cleanup d
   later. Pins the values, stamps and kinds [Initiator_accept.scramble]
   plants, and the order of its RNG draws (the send stamp is drawn before
   its kind). *)
let test_scramble_guard_pinned () =
  let buf = Buffer.create 65536 in
  for seed = 1 to 200 do
    let fake, ctx = Fake.make params in
    let ia = Ia.create ~ctx ~g:0 () in
    Ia.scramble (Ssba_sim.Rng.create seed) ~values:[ "a"; "b"; "c" ] ia;
    Separation.fingerprint buf (Ia.guard ia);
    Buffer.add_char buf '\n';
    Fake.advance fake d;
    Ia.cleanup ia;
    Separation.fingerprint buf (Ia.guard ia);
    Buffer.add_char buf '\n'
  done;
  check_str "scrambled-guard digest" "bb9ac9784da6b2226d8a0c9aacc453ee"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    case "other value blocked within last(G)" test_accept_then_other_value_blocked_within_4d;
    case "same value needs full decay" test_same_value_reaccept_needs_decay;
    case "same value after full decay" test_same_value_reaccept_after_full_decay;
    case "ready flag decays" test_ready_flag_decays;
    case "i_value decays" test_i_value_decays;
    case "blackout: re-initiation < 1d apart" test_blackout_under_1d;
    case "blackout: re-initiation exactly 1d apart" test_blackout_exactly_1d;
    case "blackout: mid-window re-initiation" test_blackout_mid_window;
    case "blackout: expires past the separation window" test_blackout_past_separation_window;
    case "blackout: relay blocks stay value-blind" test_blackout_keeps_relay_value_blind;
    Helpers.qcheck (prop_matches_reference ~name:"default params" params);
    Helpers.qcheck (prop_matches_reference ~name:"exact boundaries" exact_params);
    Helpers.qcheck (prop_next_due_never_late ~name:"default params" params ~base:100.0);
    Helpers.qcheck (prop_next_due_never_late ~name:"exact boundaries" exact_params ~base:100.0);
    Helpers.qcheck (prop_next_due_never_late ~name:"at 1e6 s" params ~base:1e6);
    case "next_due: earliest expiry, two ulps early" test_next_due_values;
    case "NaN stamps decay in one cleanup" test_nan_stamps_decay;
    case "scrambled guard pinned" test_scramble_guard_pinned;
  ]
