(* Unit tests for the msgd-broadcast primitive (paper Figure 3), driven
   through a fake context. n = 7, f = 2: strong quorum 5, weak quorum 3. *)

open Helpers
open Ssba_core
module Mb = Msgd_broadcast

let params = Params.default 7
let d = params.Params.d
let phi = params.Params.phi

type h = {
  fake : Fake.t;
  mb : Mb.t;
  accepts : (int * Types.value * int) list ref;  (* (p, v, k) *)
}

let mk ?(params = params) ?(self = 0) ?(anchor = `Now) () =
  let fake, ctx = Fake.make ~self params in
  let mb = Mb.create ~ctx ~g:6 in
  let accepts = ref [] in
  Mb.set_on_accept mb (fun ~p ~v ~k -> accepts := (p, v, k) :: !accepts);
  (match anchor with
  | `Now -> Mb.set_anchor mb fake.Fake.now
  | `None -> ());
  { fake; mb; accepts }

let msg h ~sender kind ~p ~v ~k = Mb.handle_message h.mb ~sender ~kind ~p ~v ~k

let test_init_triggers_echo () =
  let h = mk () in
  msg h ~sender:3 Types.Init ~p:3 ~v:"m" ~k:1;
  check_int "echo sent on init from p" 1 (Fake.count_kind h.fake "echo")

let test_init_authenticated () =
  let h = mk () in
  (* an init claiming broadcaster 3 but sent by 4 must be ignored *)
  msg h ~sender:4 Types.Init ~p:3 ~v:"m" ~k:1;
  check_int "forged init ignored" 0 (Fake.count_kind h.fake "echo")

let test_echo_quorums () =
  let h = mk () in
  List.iter (fun s -> msg h ~sender:s Types.Echo ~p:3 ~v:"m" ~k:1) [ 1; 2 ];
  check_int "2 < n-2f: no init'" 0 (Fake.count_kind h.fake "init'");
  msg h ~sender:3 Types.Echo ~p:3 ~v:"m" ~k:1;
  check_int "3 = n-2f echoes: init' sent" 1 (Fake.count_kind h.fake "init'");
  check_bool "no accept yet" true (!(h.accepts) = []);
  List.iter (fun s -> msg h ~sender:s Types.Echo ~p:3 ~v:"m" ~k:1) [ 4; 5 ];
  check_bool "n-f echoes: accepted via X" true (!(h.accepts) = [ (3, "m", 1) ])

let test_init2_detection_and_echo2 () =
  let h = mk () in
  List.iter (fun s -> msg h ~sender:s Types.Init2 ~p:3 ~v:"m" ~k:1) [ 1; 2; 3 ];
  check_bool "n-2f init': broadcaster detected" true (Mb.broadcasters h.mb = [ 3 ]);
  check_int "3 < n-f: no echo'" 0 (Fake.count_kind h.fake "echo'");
  List.iter (fun s -> msg h ~sender:s Types.Init2 ~p:3 ~v:"m" ~k:1) [ 4; 5 ];
  check_int "n-f init': echo' sent" 1 (Fake.count_kind h.fake "echo'")

let test_echo2_relay_and_accept () =
  let h = mk () in
  List.iter (fun s -> msg h ~sender:s Types.Echo2 ~p:3 ~v:"m" ~k:1) [ 1; 2; 3 ];
  check_int "n-2f echo': relayed" 1 (Fake.count_kind h.fake "echo'");
  check_bool "not accepted yet" true (!(h.accepts) = []);
  List.iter (fun s -> msg h ~sender:s Types.Echo2 ~p:3 ~v:"m" ~k:1) [ 4; 5 ];
  check_bool "n-f echo': accepted via Z" true (!(h.accepts) = [ (3, "m", 1) ])

let test_accept_once () =
  let h = mk () in
  List.iter (fun s -> msg h ~sender:s Types.Echo ~p:3 ~v:"m" ~k:1) [ 1; 2; 3; 4; 5 ];
  List.iter (fun s -> msg h ~sender:s Types.Echo2 ~p:3 ~v:"m" ~k:1) [ 1; 2; 3; 4; 5 ];
  check_int "accepted exactly once" 1 (List.length !(h.accepts))

let test_deadline_w () =
  let h = mk () in
  (* W deadline for k = 1 is tau_g + 2 Phi; a later init gets no echo *)
  Fake.advance h.fake ((2.0 *. phi) +. d);
  msg h ~sender:3 Types.Init ~p:3 ~v:"m" ~k:1;
  check_int "late init not echoed" 0 (Fake.count_kind h.fake "echo")

let test_deadline_x () =
  let h = mk () in
  Fake.advance h.fake ((3.0 *. phi) +. d);
  (* X deadline for k = 1 is tau_g + 3 Phi *)
  List.iter (fun s -> msg h ~sender:s Types.Echo ~p:3 ~v:"m" ~k:1) [ 1; 2; 3; 4; 5 ];
  check_int "late echoes: no init'" 0 (Fake.count_kind h.fake "init'");
  check_bool "late echoes: no X accept" true (!(h.accepts) = [])

let test_z_untimed () =
  let h = mk () in
  (* block Z has no deadline: echo' quorums accept arbitrarily late *)
  Fake.advance h.fake (10.0 *. phi);
  List.iter (fun s -> msg h ~sender:s Types.Echo2 ~p:3 ~v:"m" ~k:1) [ 1; 2; 3; 4; 5 ];
  check_bool "Z accepts late" true (!(h.accepts) = [ (3, "m", 1) ])

let test_higher_round_deadlines_scale () =
  let h = mk () in
  (* k = 2's W deadline is tau_g + 4 Phi: an init at 3 Phi still echoes *)
  Fake.advance h.fake (3.0 *. phi);
  msg h ~sender:3 Types.Init ~p:3 ~v:"m" ~k:2;
  check_int "k=2 init within deadline echoed" 1 (Fake.count_kind h.fake "echo")

let test_no_anchor_no_action () =
  let h = mk ~anchor:`None () in
  List.iter (fun s -> msg h ~sender:s Types.Echo ~p:3 ~v:"m" ~k:1) [ 1; 2; 3; 4; 5 ];
  check_int "no sends before the anchor is known" 0 (List.length h.fake.Fake.sent);
  check_bool "no accepts either" true (!(h.accepts) = []);
  (* once the anchor appears, logged messages are replayed *)
  Mb.set_anchor h.mb h.fake.Fake.now;
  check_bool "accept after anchoring" true (!(h.accepts) = [ (3, "m", 1) ]);
  check_int "init' sent after anchoring" 1 (Fake.count_kind h.fake "init'")

let test_rounds_out_of_range_dropped () =
  let h = mk () in
  msg h ~sender:3 Types.Init ~p:3 ~v:"m" ~k:0;
  msg h ~sender:3 Types.Init ~p:3 ~v:"m" ~k:(params.Params.f + 2);
  msg h ~sender:3 Types.Init ~p:3 ~v:"m" ~k:(-1);
  check_int "no echo for out-of-range rounds" 0 (Fake.count_kind h.fake "echo")

let test_triplets_independent () =
  let h = mk () in
  (* echoes for (3, m, 1) must not help (3, m', 1) or (4, m, 1) *)
  List.iter (fun s -> msg h ~sender:s Types.Echo ~p:3 ~v:"m" ~k:1) [ 1; 2; 3; 4 ];
  msg h ~sender:5 Types.Echo ~p:3 ~v:"m'" ~k:1;
  msg h ~sender:5 Types.Echo ~p:4 ~v:"m" ~k:1;
  check_bool "no accept from mixed triplets" true (!(h.accepts) = []);
  msg h ~sender:5 Types.Echo ~p:3 ~v:"m" ~k:1;
  check_bool "exact triplet completes" true (!(h.accepts) = [ (3, "m", 1) ])

let test_broadcast_sends_init () =
  let h = mk () in
  Mb.broadcast h.mb ~v:"mine" ~k:2;
  check_int "init sent" 1 (Fake.count_kind h.fake "init")

let test_cleanup_decay () =
  let h = mk () in
  List.iter (fun s -> msg h ~sender:s Types.Echo2 ~p:3 ~v:"m" ~k:1) [ 1; 2 ];
  Fake.advance h.fake (float_of_int ((2 * params.Params.f) + 3) *. phi +. d);
  Mb.cleanup h.mb;
  (* stale echo' must not combine with fresh ones *)
  List.iter (fun s -> msg h ~sender:s Types.Echo2 ~p:3 ~v:"m" ~k:1) [ 3; 4; 5 ];
  check_bool "no accept across the decay horizon" true (!(h.accepts) = [])

let test_cleanup_drops_future_anchor () =
  let h = mk ~anchor:`None () in
  Mb.set_anchor h.mb (h.fake.Fake.now +. 50.0);
  Mb.cleanup h.mb;
  check_bool "future anchor dropped" true (Mb.anchor h.mb = None)

let test_reset () =
  let h = mk () in
  List.iter (fun s -> msg h ~sender:s Types.Init2 ~p:3 ~v:"m" ~k:1) [ 1; 2; 3 ];
  check_int "broadcaster present" 1 (Mb.broadcaster_count h.mb);
  Mb.reset h.mb;
  check_int "broadcasters cleared" 0 (Mb.broadcaster_count h.mb);
  check_bool "anchor cleared" true (Mb.anchor h.mb = None)

let test_duplicate_senders () =
  let h = mk () in
  for _ = 1 to 10 do
    msg h ~sender:1 Types.Echo ~p:3 ~v:"m" ~k:1
  done;
  check_int "one sender is not a quorum" 0 (Fake.count_kind h.fake "init'")

(* ----- the arrival path's per-broadcaster index ------------------------- *)

let index_of s sub ~from =
  let ls = String.length s and lsub = String.length sub in
  let rec go i =
    if i + lsub > ls then raise Not_found
    else if String.sub s i lsub = sub then i
    else go (i + 1)
  in
  go from

(* The trips table as the fingerprint prints it: (p, v, k) -> the senders
   of its echo stamps. The fingerprint walks the table itself, never the
   arrival path's index. *)
let table h =
  let buf = Buffer.create 256 in
  Mb.fingerprint buf h.mb;
  String.split_on_char ';' (Buffer.contents buf)
  |> List.filter_map (fun piece ->
         if String.length piece > 2 && String.sub piece 0 2 = "t:" then
           let eq = String.index piece '=' in
           match String.split_on_char '/' (String.sub piece 2 (eq - 2)) with
           | [ p; v; k ] ->
               let e = index_of piece "|e" ~from:eq + 2 in
               let log = String.sub piece e (index_of piece "|i2" ~from:e - e) in
               let senders =
                 String.split_on_char ',' log
                 |> List.filter (( <> ) "")
                 |> List.map (fun entry ->
                        int_of_string (String.sub entry 0 (String.index entry '@')))
               in
               Some ((int_of_string p, v, int_of_string k), senders)
           | _ -> None
         else None)

(* Deliver an echo to [key] from the least sender its trip in the table has
   not logged (any sender, if the table has no such trip) and check it
   landed in that trip, with exactly one more echo than before. A stale
   index entry would swallow the echo outside the table; a missing one would
   start a second trip and drop the first one's echoes. The sender is always
   in [0, n), the only senders the network delivers from. *)
let check_arrival label h ((p, v, k) as key) =
  let before = Option.value ~default:[] (List.assoc_opt key (table h)) in
  let rec unlogged s = if List.mem s before then unlogged (s + 1) else s in
  let sender = unlogged 0 in
  if sender >= h.fake.Fake.params.Params.n then
    Alcotest.failf "%s: (%d, %s, %d) has every sender logged" label p v k;
  msg h ~sender Types.Echo ~p ~v ~k;
  match List.assoc_opt key (table h) with
  | Some after ->
      check_int
        (Printf.sprintf "%s: (%d, %s, %d)" label p v k)
        (List.length before + 1) (List.length after)
  | None -> Alcotest.failf "%s: the echo for (%d, %s, %d) missed the table" label p v k

(* Every key the table holds, plus every key ever probed (so a trip that
   left the table is probed too). *)
let check_all label h known =
  let keys = List.sort_uniq compare (known @ List.map fst (table h)) in
  List.iter (check_arrival label h) keys

(* n = 31 leaves room for every probe's sender in [0, n), next to the
   stamps a scramble plants. *)
let test_index_tracks_table () =
  let params = Params.default 31 in
  let d = params.Params.d and phi = params.Params.phi in
  let h = mk ~params ~anchor:`None () in
  let n = params.Params.n in
  let keys =
    List.concat_map
      (fun p -> [ (p, "m", 1); (p, "x", 1); (p, "m", 2) ])
      [ 1; 3; 5; -1; n ]
  in
  let early, late = List.partition (fun (p, _, _) -> p <> 5) keys in
  let log_echoes ks =
    List.iter
      (fun (p, v, k) -> List.iter (fun s -> msg h ~sender:s Types.Echo ~p ~v ~k) [ 1; 2 ])
      ks
  in
  log_echoes early;
  Fake.advance h.fake (5.0 *. d);
  log_echoes late;
  (* the anchor purges everything logged before tau_g - d: the early trips *)
  Mb.set_anchor h.mb h.fake.Fake.now;
  check_bool "purge left only the late trips" true
    (List.sort compare (List.map fst (table h)) = List.sort compare late);
  check_all "after the set_anchor purge" h keys;
  (* cleanup decays trips idle past (2f+3) Phi; keep two of them busy *)
  let horizon = float_of_int ((2 * params.Params.f) + 3) *. phi in
  Fake.advance h.fake (horizon /. 2.0);
  let busy = [ (3, "m", 1); (n, "x", 1) ] in
  List.iter (check_arrival "busy" h) busy;
  Fake.advance h.fake ((horizon /. 2.0) +. d);
  Mb.cleanup h.mb;
  check_bool "cleanup kept exactly the busy trips" true
    (List.sort compare (List.map fst (table h)) = List.sort compare busy);
  check_all "after a cleanup decay" h keys;
  Mb.reset h.mb;
  check_bool "reset empties the table" true (table h = []);
  check_all "after reset" h keys;
  Mb.reset h.mb;
  Mb.scramble (Ssba_sim.Rng.create 5) ~values:[ "m"; "x" ] h.mb;
  check_all "after scramble" h keys

(* One broadcaster, two values, two round tags: four independent trips
   behind one index entry, fed interleaved. *)
let test_one_broadcaster_interleaved () =
  let h = mk () in
  let trips = [ (3, "m", 1); (3, "x", 1); (3, "m", 2); (3, "x", 2) ] in
  List.iter
    (fun s -> List.iter (fun (p, v, k) -> msg h ~sender:s Types.Echo ~p ~v ~k) trips)
    [ 1; 2; 3; 4 ];
  check_int "an init' per trip at n-2f echoes" 4 (Fake.count_kind h.fake "init'");
  check_bool "no trip accepted on 4 echoes" true (!(h.accepts) = []);
  List.iter (fun (p, v, k) -> msg h ~sender:5 Types.Echo ~p ~v ~k) trips;
  check_bool "each trip accepted once, on its own fifth echo" true
    (List.rev !(h.accepts) = trips)

(* Byzantine garbage names broadcasters outside [0, n): those trips live in
   the table only, and must not mix with an in-range broadcaster's. *)
let test_out_of_range_broadcasters () =
  let h = mk () in
  let n = params.Params.n in
  let trips = [ (-1, "m", 1); (n, "m", 1); (0, "m", 1) ] in
  List.iter
    (fun s -> List.iter (fun (p, v, k) -> msg h ~sender:s Types.Echo ~p ~v ~k) trips)
    [ 1; 2; 3; 4 ];
  check_bool "no accepts on 4 echoes each" true (!(h.accepts) = []);
  List.iter (fun (p, v, k) -> msg h ~sender:5 Types.Echo ~p ~v ~k) trips;
  check_bool "p = -1 and p = n accepted through the table" true
    (List.rev !(h.accepts) = trips);
  check_bool "all three in the table" true
    (List.sort compare (List.map fst (table h)) = List.sort compare trips)

(* A broadcaster id outside [0, n) holds no broadcasters slot: n-2f init'
   for it neither joins the set (whose count feeds block T) nor fires the
   broadcaster callback or trace event. An in-range one still does. *)
let test_out_of_range_broadcaster_never_joins () =
  let h = mk () in
  let n = params.Params.n in
  let joined = ref [] in
  Mb.set_on_broadcaster h.mb (fun p -> joined := p :: !joined);
  List.iter
    (fun p -> List.iter (fun s -> msg h ~sender:s Types.Init2 ~p ~v:"m" ~k:1) [ 1; 2; 3 ])
    [ -1; n; n + 5 ];
  check_int "no out-of-range broadcaster counted" 0 (Mb.broadcaster_count h.mb);
  check_bool "no callback" true (!joined = []);
  check_bool "no broadcaster trace event" true
    (not
       (List.exists
          (function Ssba_sim.Trace.Mb_broadcaster _ -> true | _ -> false)
          h.fake.Fake.traced));
  List.iter (fun s -> msg h ~sender:s Types.Init2 ~p:3 ~v:"m" ~k:1) [ 1; 2; 3 ];
  check_int "an in-range broadcaster joins" 1 (Mb.broadcaster_count h.mb);
  check_bool "callback for it" true (!joined = [ 3 ]);
  check_bool "listed" true (Mb.broadcasters h.mb = [ 3 ])

(* The stamps ignore a sender outside [0, n): it counts towards no quorum. *)
let test_out_of_range_sender_ignored () =
  let h = mk () in
  let n = params.Params.n in
  List.iter (fun s -> msg h ~sender:s Types.Echo ~p:3 ~v:"m" ~k:1) [ 1; 2; -1; n ];
  check_int "2 in-range echoes < n-2f: no init'" 0 (Fake.count_kind h.fake "init'");
  check_bool "only the in-range senders logged" true
    (List.assoc_opt (3, "m", 1) (table h) = Some [ 1; 2 ]);
  msg h ~sender:3 Types.Echo ~p:3 ~v:"m" ~k:1;
  check_int "a third in-range sender reaches n-2f" 1 (Fake.count_kind h.fake "init'")

(* A cleanup decays stale stamps out of a trip that stays live, and out of
   the broadcasters set; the counts fall with them. *)
let test_cleanup_decays_live_trip () =
  let h = mk () in
  List.iter (fun s -> msg h ~sender:s Types.Echo2 ~p:3 ~v:"m" ~k:1) [ 1; 2 ];
  List.iter (fun s -> msg h ~sender:s Types.Init2 ~p:4 ~v:"m" ~k:1) [ 1; 2; 3 ];
  check_int "broadcaster joined" 1 (Mb.broadcaster_count h.mb);
  let horizon = float_of_int ((2 * params.Params.f) + 3) *. phi in
  Fake.advance h.fake (horizon /. 2.0);
  (* a late echo keeps (3, m, 1) live through the cleanup *)
  msg h ~sender:6 Types.Echo ~p:3 ~v:"m" ~k:1;
  Fake.advance h.fake ((horizon /. 2.0) +. d);
  Mb.cleanup h.mb;
  check_int "broadcaster decayed" 0 (Mb.broadcaster_count h.mb);
  check_bool "the live trip stays" true
    (List.assoc_opt (3, "m", 1) (table h) = Some [ 6 ]);
  List.iter (fun s -> msg h ~sender:s Types.Echo2 ~p:3 ~v:"m" ~k:1) [ 3; 4; 5 ];
  check_int "3 fresh echo' relay" 1 (Fake.count_kind h.fake "echo'");
  check_bool "decayed echo' complete no quorum" true (!(h.accepts) = [])

let suite =
  [
    case "init triggers echo (W)" test_init_triggers_echo;
    case "init authenticated" test_init_authenticated;
    case "echo quorums (X)" test_echo_quorums;
    case "init' detection + echo' (Y)" test_init2_detection_and_echo2;
    case "echo' relay + accept (Z)" test_echo2_relay_and_accept;
    case "accept once" test_accept_once;
    case "W deadline" test_deadline_w;
    case "X deadline" test_deadline_x;
    case "Z untimed" test_z_untimed;
    case "round deadlines scale with k" test_higher_round_deadlines_scale;
    case "no anchor, no action" test_no_anchor_no_action;
    case "rounds out of range" test_rounds_out_of_range_dropped;
    case "triplets independent" test_triplets_independent;
    case "broadcast sends init (V)" test_broadcast_sends_init;
    case "cleanup decay" test_cleanup_decay;
    case "cleanup drops future anchor" test_cleanup_drops_future_anchor;
    case "reset" test_reset;
    case "duplicate senders" test_duplicate_senders;
    case "index tracks the table (purge, decay, reset, scramble)"
      test_index_tracks_table;
    case "one broadcaster, two values, two rounds" test_one_broadcaster_interleaved;
    case "out-of-range broadcasters go through the table"
      test_out_of_range_broadcasters;
    case "out-of-range broadcaster never joins" test_out_of_range_broadcaster_never_joins;
    case "out-of-range sender counts towards no quorum" test_out_of_range_sender_ignored;
    case "cleanup decays the stamps of a live trip" test_cleanup_decays_live_trip;
  ]
