(* Unit tests for the Initiator-Accept primitive (paper Figure 2), driven
   through a fake context: we feed messages by hand and observe sends,
   state and the I-accept callback.

   Parameters: n = 7, f = 2, so the strong quorum is 5 and the weak one 3. *)

open Helpers
open Ssba_core
module Ia = Initiator_accept

let params = Params.default 7
let d = params.Params.d

type h = {
  fake : Fake.t;
  ia : Ia.t;
  accepted : (Types.value * float) option ref;
}

let mk ?(g = 0) () =
  let fake, ctx = Fake.make params in
  let ia = Ia.create ~ctx ~g () in
  let accepted = ref None in
  Ia.set_on_accept ia (fun v ~tau_g -> accepted := Some (v, tau_g));
  { fake; ia; accepted }

let support h ~sender v = Ia.handle_message h.ia ~kind:Types.Support ~sender ~v
let approve h ~sender v = Ia.handle_message h.ia ~kind:Types.Approve ~sender ~v
let ready h ~sender v = Ia.handle_message h.ia ~kind:Types.Ready ~sender ~v

(* Drive the full pipeline to the I-accept for value [v]: 5 supports,
   5 approves, 5 readys, each batch spread over ~0.1d. *)
let drive_accept ?(senders = [ 1; 2; 3; 4; 5 ]) h v =
  List.iter (fun s -> support h ~sender:s v) senders;
  Fake.advance h.fake (0.2 *. d);
  List.iter (fun s -> approve h ~sender:s v) senders;
  Fake.advance h.fake (0.2 *. d);
  List.iter (fun s -> ready h ~sender:s v) senders

let test_block_k_sends_support () =
  let h = mk () in
  Ia.handle_initiator h.ia "m";
  check_int "support sent" 1 (Fake.count_kind h.fake "support");
  match Ia.i_value h.ia "m" with
  | Some r -> check_float "recording time = tau - d" (h.fake.Fake.now -. d) r
  | None -> Alcotest.fail "i_values not set by K2"

let test_k1_blocks_second_value () =
  let h = mk () in
  Ia.handle_initiator h.ia "m1";
  Fake.advance h.fake (2.0 *. d);
  Ia.handle_initiator h.ia "m2";
  check_int "no support for the second value while i_values[m1] lives" 1
    (Fake.count_kind h.fake "support")

let test_k1_blocks_recent_support () =
  let h = mk () in
  Ia.handle_initiator h.ia "m";
  (* same value again immediately: the "sent support within [tau-d, tau]"
     and last(G,m) guards both bite *)
  Ia.handle_initiator h.ia "m";
  check_int "only one support" 1 (Fake.count_kind h.fake "support")

let test_k1_blocks_last_gm_freshness () =
  let h = mk () in
  (* L-activity for value "m" (3 supports in a tight window) sets last(G,m)
     via L2, which must block a later block-K for "m" (Definition 8) *)
  List.iter (fun s -> support h ~sender:s "m") [ 1; 2; 3 ];
  check_bool "no accept yet" true (Ia.accepted h.ia = None);
  Fake.advance h.fake (2.0 *. d);
  Ia.handle_initiator h.ia "m";
  check_int "K1 rejected: no support sent" 0 (Fake.count_kind h.fake "support")

let test_l_quorum_sends_approve () =
  let h = mk () in
  List.iter (fun s -> support h ~sender:s "m") [ 1; 2; 3; 4 ];
  check_int "4 < n-f: no approve" 0 (Fake.count_kind h.fake "approve");
  support h ~sender:5 "m";
  check_int "5 = n-f supports: approve sent" 1 (Fake.count_kind h.fake "approve")

let test_l3_window_too_wide () =
  let h = mk () in
  (* 5 distinct supports, but spread over 3d: never 5 within a 2d window *)
  List.iteri
    (fun i s ->
      support h ~sender:s "m";
      if i < 4 then Fake.advance h.fake (0.75 *. d))
    [ 1; 2; 3; 4; 5 ];
  check_int "no approve from a stretched burst" 0 (Fake.count_kind h.fake "approve")

let test_l1_recording_time () =
  let h = mk () in
  (* No invocation: the recording time comes from L2 = now - alpha - 2d. *)
  support h ~sender:1 "m";
  Fake.advance h.fake (0.5 *. d);
  support h ~sender:2 "m";
  Fake.advance h.fake (0.5 *. d);
  support h ~sender:3 "m";
  (match Ia.i_value h.ia "m" with
  | Some r ->
      (* alpha = 1d (span of the three), recording = now - 1d - 2d *)
      check_float ~eps:1e-9 "L2 recording time" (h.fake.Fake.now -. (3.0 *. d)) r
  | None -> Alcotest.fail "L1/L2 did not fire");
  (* a later, tighter burst must only move the recording time forward *)
  Fake.advance h.fake (1.0 *. d);
  List.iter (fun s -> support h ~sender:s "m") [ 4; 5; 6 ];
  match Ia.i_value h.ia "m" with
  | Some r -> check_float "max with newer recording" (h.fake.Fake.now -. (2.0 *. d)) r
  | None -> Alcotest.fail "recording lost"

let test_m_blocks () =
  let h = mk () in
  List.iter (fun s -> approve h ~sender:s "m") [ 1; 2 ];
  check_bool "2 < n-2f: no ready flag" false (Ia.ready_flag_fresh h.ia "m");
  approve h ~sender:3 "m";
  check_bool "3 = n-2f approves: ready flag set (M2)" true
    (Ia.ready_flag_fresh h.ia "m");
  check_int "3 < n-f: no ready sent" 0 (Fake.count_kind h.fake "ready");
  approve h ~sender:4 "m";
  approve h ~sender:5 "m";
  check_int "5 approves: ready sent (M4)" 1 (Fake.count_kind h.fake "ready")

let test_n1_amplification () =
  let h = mk () in
  (* ready flag via M2 (3 approves), then n-2f readys trigger our own ready
     even though M3's n-f approve quorum never formed *)
  List.iter (fun s -> approve h ~sender:s "m") [ 1; 2; 3 ];
  check_int "no ready yet" 0 (Fake.count_kind h.fake "ready");
  List.iter (fun s -> ready h ~sender:s "m") [ 1; 2; 3 ];
  check_int "N2 amplification sent ready" 1 (Fake.count_kind h.fake "ready")

let test_n_requires_ready_flag () =
  let h = mk () in
  (* readys without any approve activity must not be amplified or accepted *)
  List.iter (fun s -> ready h ~sender:s "m") [ 1; 2; 3; 4; 5 ];
  check_int "no ready sent" 0 (Fake.count_kind h.fake "ready");
  check_bool "no accept" true (Ia.accepted h.ia = None)

let test_full_accept () =
  let h = mk () in
  Ia.handle_initiator h.ia "m";
  let k2_anchor = Option.get (Ia.i_value h.ia "m") in
  Fake.advance h.fake (0.3 *. d);
  drive_accept h "m";
  (match !(h.accepted) with
  | Some (v, tau_g) ->
      check_str "accepted value" "m" v;
      check_bool "anchor is the K2 recording time or later" true (tau_g >= k2_anchor -. 1e-12)
  | None -> Alcotest.fail "no I-accept");
  match Ia.accepted h.ia with
  | Some (v, _, _) -> check_str "stored accept" "m" v
  | None -> Alcotest.fail "accepted not recorded"

let test_accept_only_once () =
  let h = mk () in
  Ia.handle_initiator h.ia "m";
  drive_accept h "m";
  h.accepted := None;
  (* more readys must not re-trigger N4 *)
  Fake.advance h.fake (4.0 *. d);
  List.iter (fun s -> ready h ~sender:s "m") [ 1; 2; 3; 4; 5 ];
  check_bool "N4 not executed twice" true (!(h.accepted) = None)

let test_ignore_window_after_accept () =
  let h = mk () in
  Ia.handle_initiator h.ia "m";
  drive_accept h "m";
  check_bool "ignoring (G,m)" true (Ia.ignoring h.ia "m");
  Fake.advance h.fake (3.5 *. d);
  check_bool "ignore window over after 3d" false (Ia.ignoring h.ia "m")

let test_accept_sets_last_g_blocking_k () =
  let h = mk () in
  Ia.handle_initiator h.ia "m";
  drive_accept h "m";
  Fake.clear_sent h.fake;
  (* last(G) is set by N4; a new initiation within Delta_0 - 6d is refused *)
  Fake.advance h.fake (4.0 *. d);
  Ia.handle_initiator h.ia "m2";
  check_int "K1 blocked by last(G)" 0 (Fake.count_kind h.fake "support");
  (* after last(G) expires (Delta_0 - 6d = 7d) and cleanup, a new value flows *)
  Fake.advance h.fake (9.0 *. d);
  Ia.cleanup h.ia;
  Ia.reset h.ia;
  Ia.handle_initiator h.ia "m2";
  check_int "K1 passes after expiry" 1 (Fake.count_kind h.fake "support")

let test_cleanup_decays_messages () =
  let h = mk () in
  List.iter (fun s -> support h ~sender:s "m") [ 1; 2; 3; 4 ];
  Fake.advance h.fake (params.Params.delta_rmv +. d);
  Ia.cleanup h.ia;
  Fake.clear_sent h.fake;
  (* the decayed supports must not combine with a fresh one into a quorum *)
  support h ~sender:5 "m";
  check_int "stale supports gone" 0 (Fake.count_kind h.fake "approve")

let test_cleanup_drops_future_accept () =
  let h = mk () in
  let rng = Ssba_sim.Rng.create 3 in
  Ia.scramble rng ~values:[ "x" ] h.ia;
  (* whatever garbage was planted, cleanup plus quiet time must clear the
     accept or leave a consistent one *)
  Fake.advance h.fake (params.Params.delta_rmv +. (2.0 *. d));
  Ia.cleanup h.ia;
  match Ia.accepted h.ia with
  | None -> ()
  | Some (_, tau_g, ta) ->
      check_bool "surviving accept is time-consistent" true
        (tau_g <= ta && ta <= h.fake.Fake.now)

let test_reset_clears_accept_keeps_rate_limits () =
  let h = mk () in
  Ia.handle_initiator h.ia "m";
  drive_accept h "m";
  Ia.reset h.ia;
  check_bool "accept cleared" true (Ia.accepted h.ia = None);
  Fake.clear_sent h.fake;
  (* last(G) survives the reset: immediate re-initiation is still refused *)
  Ia.handle_initiator h.ia "m2";
  check_int "rate limit survives reset" 0 (Fake.count_kind h.fake "support")

let test_invocation_report () =
  let h = mk () in
  Ia.handle_initiator h.ia "m";
  let rep = Ia.invocation_report h.ia in
  check_bool "invoked_at set" true (rep.Ia.invoked_at <> None);
  check_bool "l4 not yet" true (rep.Ia.l4_at = None);
  drive_accept h "m";
  let rep = Ia.invocation_report h.ia in
  check_bool "l4 recorded" true (rep.Ia.l4_at <> None);
  check_bool "m4 recorded" true (rep.Ia.m4_at <> None);
  check_bool "n4 recorded" true (rep.Ia.n4_at <> None);
  let inv = Option.get rep.Ia.invoked_at in
  check_bool "l4 within 2d" true (Option.get rep.Ia.l4_at -. inv <= 2.0 *. d);
  check_bool "n4 within 4d" true (Option.get rep.Ia.n4_at -. inv <= 4.0 *. d)

let test_duplicate_sends_suppressed () =
  let h = mk () in
  List.iter (fun s -> support h ~sender:s "m") [ 1; 2; 3; 4; 5 ];
  (* more supports keep the L3 condition true, but the approve was just sent *)
  List.iter (fun s -> support h ~sender:s "m") [ 6; 1; 2 ];
  check_int "approve deduplicated" 1 (Fake.count_kind h.fake "approve")

let test_sender_diversity_required () =
  let h = mk () in
  (* the same sender reporting five times is one distinct sender *)
  for _ = 1 to 5 do
    support h ~sender:1 "m"
  done;
  check_int "no quorum from one sender" 0 (Fake.count_kind h.fake "approve")

(* A log can be present with no entries: evaluating blocks L–N makes all
   three of a value's logs present, and a transient fault can leave one so.
   Such a log prints, and it keeps the session from being quiescent (so
   from being collected) until a cleanup drops it. The first scramble seed
   that leaves nothing but empty logs makes the case. *)
let test_empty_log_present () =
  let remove fp tok =
    let n = String.length tok in
    let rec go i =
      if i + n > String.length fp then fp
      else if String.sub fp i n = tok then
        String.sub fp 0 i ^ String.sub fp (i + n) (String.length fp - i - n)
      else go (i + 1)
    in
    go 0
  in
  let strip fp = List.fold_left remove fp [ "s:m=;"; "a:m=;"; "r:m=;" ] in
  let fingerprint ia =
    let b = Buffer.create 64 in
    Ia.fingerprint b ia;
    Buffer.contents b
  in
  let rec find seed =
    if seed > 20_000 then Alcotest.fail "no seed leaves only empty logs";
    let fake, ctx = Fake.make params in
    let ia = Ia.create ~ctx ~g:0 () in
    Ia.scramble (Ssba_sim.Rng.create seed) ~values:[ "m" ] ia;
    let fp = fingerprint ia in
    if fp <> "ia{g=0;acc=-}" && strip fp = "ia{g=0;acc=-}" then (fake, ia, fp)
    else find (seed + 1)
  in
  let fake, ia, fp = find 1 in
  check_bool ("not quiescent: " ^ fp) false (Ia.quiescent ia);
  Fake.advance fake d;
  Ia.cleanup ia;
  check_str "cleanup drops the empty logs" "ia{g=0;acc=-}" (fingerprint ia);
  check_bool "then quiescent" true (Ia.quiescent ia)

(* ---- the slot array against its reference model ------------------------ *)

(* Random operation sequences over one to four values, applied to the
   current [Initiator_accept] and to [Ref_initiator_accept] (the six-table
   version every pinned digest was recorded under), each with its own fake
   context and guard. After every step the two must agree on every query,
   on the messages sent, the I-accept callbacks and the trace, and on the
   bytes of both fingerprints (the instance's and its guard's). Time
   advances in multiples of d/64, often by whole d.

   The second run uses d = 2^-10 with no drift or skew: every stamp the
   primitive writes is then an exact multiple of d/64, so each decay and
   ignore-window boundary is hit exactly. *)

type op =
  | Initiate of int
  | Msg of Types.ia_kind * int * int  (* kind, sender, value *)
  | Burst of Types.ia_kind * int * int  (* kind, senders 0..k-1, value *)
  | Cleanup
  | Forget
  | Reset
  | Scramble of int * int  (* seed, over values 0..k *)
  | Advance of int  (* in d/64 *)

let pool = [| "m"; "a"; "zz"; "ab" |]

let gen_ops =
  QCheck.Gen.(
    int_range 1 4 >>= fun nvals ->
    let value = int_bound (nvals - 1) in
    let kind = oneofl [ Types.Support; Types.Approve; Types.Ready ] in
    let sender = int_bound (params.Params.n - 1) in
    list_size (int_range 1 80)
      (frequency
         [
           (2, map (fun v -> Initiate v) value);
           (6, map3 (fun k s v -> Msg (k, s, v)) kind sender value);
           (3, map3 (fun k n v -> Burst (k, n, v)) kind (int_range 2 7) value);
           (4, return Cleanup);
           (1, return Forget);
           (1, return Reset);
           (1, map2 (fun seed k -> Scramble (seed, k)) small_nat value);
           (3, map (fun k -> Advance k) (int_bound 128));
           (3, map (fun k -> Advance (64 * k)) (int_range 1 4));
           (1, map (fun k -> Advance (64 * k)) (int_range 10 60));
         ]))

let print_ops ops =
  let kind = Types.string_of_ia_kind in
  String.concat "; "
    (List.map
       (function
         | Initiate v -> "init " ^ pool.(v)
         | Msg (k, s, v) -> Printf.sprintf "%s from %d %s" (kind k) s pool.(v)
         | Burst (k, n, v) -> Printf.sprintf "%s from 0..%d %s" (kind k) (n - 1) pool.(v)
         | Cleanup -> "cleanup"
         | Forget -> "forget"
         | Reset -> "reset"
         | Scramble (seed, k) -> Printf.sprintf "scramble %d over %d values" seed (k + 1)
         | Advance k -> Printf.sprintf "+%d/64d" k)
       ops)

let prop_matches_reference ~name p =
  QCheck.Test.make
    ~name:("slots answer, send and print like the six-table reference, " ^ name)
    ~count:300
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      let cfake, cctx = Fake.make p and rfake, rctx = Fake.make p in
      let caccepts = ref [] and raccepts = ref [] in
      let cur = Ia.create ~ctx:cctx ~g:1 () in
      let rf = Ref_initiator_accept.create ~ctx:rctx ~g:1 () in
      Ia.set_on_accept cur (fun v ~tau_g -> caccepts := (v, tau_g) :: !caccepts);
      Ref_initiator_accept.set_on_accept rf (fun v ~tau_g ->
          raccepts := (v, tau_g) :: !raccepts);
      let apply = function
        | Initiate v ->
            Ia.handle_initiator cur pool.(v);
            Ref_initiator_accept.handle_initiator rf pool.(v)
        | Msg (kind, sender, v) ->
            Ia.handle_message cur ~kind ~sender ~v:pool.(v);
            Ref_initiator_accept.handle_message rf ~kind ~sender ~v:pool.(v)
        | Burst (kind, n, v) ->
            for sender = 0 to n - 1 do
              Ia.handle_message cur ~kind ~sender ~v:pool.(v);
              Ref_initiator_accept.handle_message rf ~kind ~sender ~v:pool.(v)
            done
        | Cleanup ->
            Ia.cleanup cur;
            Ref_initiator_accept.cleanup rf
        | Forget ->
            Ia.forget_messages cur;
            Ref_initiator_accept.forget_messages rf
        | Reset ->
            Ia.reset cur;
            Ref_initiator_accept.reset rf
        | Scramble (seed, k) ->
            let values = Array.to_list (Array.sub pool 0 (k + 1)) in
            Ia.scramble (Ssba_sim.Rng.create seed) ~values cur;
            Ref_initiator_accept.scramble (Ssba_sim.Rng.create seed) ~values rf
        | Advance k ->
            let dt = float_of_int k *. p.Params.d /. 64.0 in
            Fake.advance cfake dt;
            Fake.advance rfake dt
      in
      let disagreement () =
        let fails = ref [] in
        let agree what a b = if a <> b then fails := what :: !fails in
        Array.iter
          (fun v ->
            agree ("i_value " ^ v) (Ia.i_value cur v) (Ref_initiator_accept.i_value rf v);
            agree ("ready_flag_fresh " ^ v) (Ia.ready_flag_fresh cur v)
              (Ref_initiator_accept.ready_flag_fresh rf v);
            agree ("ignoring " ^ v) (Ia.ignoring cur v) (Ref_initiator_accept.ignoring rf v))
          pool;
        agree "accepted" (Ia.accepted cur) (Ref_initiator_accept.accepted rf);
        agree "quiescent" (Ia.quiescent cur) (Ref_initiator_accept.quiescent rf);
        let rep = Ia.invocation_report cur
        and rrep = Ref_initiator_accept.invocation_report rf in
        agree "invocation report"
          Ia.(rep.invoked_at, rep.l4_at, rep.m4_at, rep.n4_at)
          Ref_initiator_accept.(rrep.invoked_at, rrep.l4_at, rrep.m4_at, rrep.n4_at);
        agree "sends" cfake.Fake.sent rfake.Fake.sent;
        agree "accept callbacks" !caccepts !raccepts;
        agree "trace" cfake.Fake.traced rfake.Fake.traced;
        let fc = Buffer.create 256 and fr = Buffer.create 256 in
        Ia.fingerprint fc cur;
        Separation.fingerprint fc (Ia.guard cur);
        Ref_initiator_accept.fingerprint fr rf;
        Separation.fingerprint fr (Ref_initiator_accept.guard rf);
        if Buffer.contents fc <> Buffer.contents fr then
          fails :=
            Printf.sprintf "fingerprint\n  cur %s\n  ref %s" (Buffer.contents fc)
              (Buffer.contents fr)
            :: !fails;
        !fails
      in
      List.iteri
        (fun i op ->
          apply op;
          match disagreement () with
          | [] -> ()
          | fails ->
              QCheck.Test.fail_reportf "after step %d: %s" i (String.concat "; " fails))
        ops;
      true)

let exact_params = Params.default ~delta:(1.0 /. 1024.0) ~pi:0.0 ~rho:0.0 7

let suite =
  [
    case "block K sends support" test_block_k_sends_support;
    case "K1 blocks second value" test_k1_blocks_second_value;
    case "K1 blocks recent support" test_k1_blocks_recent_support;
    case "K1 last(G,m) freshness" test_k1_blocks_last_gm_freshness;
    case "L quorum sends approve" test_l_quorum_sends_approve;
    case "L3 window too wide" test_l3_window_too_wide;
    case "L1/L2 recording time" test_l1_recording_time;
    case "M blocks" test_m_blocks;
    case "N1 amplification" test_n1_amplification;
    case "N requires ready flag" test_n_requires_ready_flag;
    case "full accept" test_full_accept;
    case "accept only once" test_accept_only_once;
    case "ignore window" test_ignore_window_after_accept;
    case "last(G) blocks re-initiation" test_accept_sets_last_g_blocking_k;
    case "cleanup decays messages" test_cleanup_decays_messages;
    case "cleanup fixes scrambled accept" test_cleanup_drops_future_accept;
    case "reset semantics" test_reset_clears_accept_keeps_rate_limits;
    case "invocation report (IG3)" test_invocation_report;
    case "duplicate sends suppressed" test_duplicate_sends_suppressed;
    case "sender diversity required" test_sender_diversity_required;
    case "an empty log is present until cleanup" test_empty_log_present;
    qcheck (prop_matches_reference ~name:"default params" params);
    qcheck (prop_matches_reference ~name:"exact boundaries" exact_params);
  ]
