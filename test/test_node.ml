(* Tests for the node glue: General-side Sending Validity Criteria
   (IG1/IG2/IG3), message dispatch, returns plumbing. *)

open Helpers
open Ssba_core
module Engine = Ssba_sim.Engine

let test_propose_ok () =
  let c = Cluster.make ~n:7 () in
  Engine.schedule c.Cluster.engine ~at:0.05 (fun () ->
      check_bool "first proposal accepted" true
        (Node.propose (Cluster.node c 0) "v" = Ok ()));
  Cluster.run c

let test_ig1_spacing () =
  let c = Cluster.make ~n:7 () in
  let params = c.Cluster.params in
  Engine.schedule c.Cluster.engine ~at:0.05 (fun () ->
      ignore (Node.propose (Cluster.node c 0) "v1"));
  (* a second initiation within Delta_0 must be refused (any value);
     [Busy] may fire first if the previous instance is still live *)
  Engine.schedule c.Cluster.engine
    ~at:(0.05 +. (0.5 *. params.Params.delta_0))
    (fun () ->
      match Node.propose (Cluster.node c 0) "v2" with
      | Error (Node.Too_soon | Node.Busy) -> ()
      | Error e -> Alcotest.failf "unexpected: %s" (Node.string_of_propose_error e)
      | Ok () -> Alcotest.fail "IG1 violated: proposal accepted too soon");
  (* but beyond Delta_0 a different value is fine *)
  Engine.schedule c.Cluster.engine
    ~at:(0.05 +. (2.0 *. params.Params.delta_0))
    (fun () ->
      check_bool "after Delta_0 a new value is accepted" true
        (Node.propose (Cluster.node c 0) "v2" = Ok ()));
  Cluster.run c

let test_ig2_same_value_spacing () =
  let c = Cluster.make ~n:7 () in
  let params = c.Cluster.params in
  Engine.schedule c.Cluster.engine ~at:0.05 (fun () ->
      ignore (Node.propose (Cluster.node c 0) "v"));
  (* same value beyond Delta_0 but within Delta_v: refused with IG2 *)
  Engine.schedule c.Cluster.engine
    ~at:(0.05 +. (2.0 *. params.Params.delta_0))
    (fun () ->
      match Node.propose (Cluster.node c 0) "v" with
      | Error Node.Value_too_soon -> ()
      | Error e -> Alcotest.failf "unexpected: %s" (Node.string_of_propose_error e)
      | Ok () -> Alcotest.fail "IG2 violated");
  (* beyond Delta_v the same value is fine again *)
  Engine.schedule c.Cluster.engine
    ~at:(0.05 +. params.Params.delta_v +. params.Params.delta_0)
    (fun () ->
      check_bool "after Delta_v same value accepted" true
        (Node.propose (Cluster.node c 0) "v" = Ok ()));
  Cluster.run ~until:3.0 c

let test_ig3_failure_blocks () =
  (* crash everyone else: the General's own invocation cannot complete
     L4/M4/N4, so the IG3 watchdog must impose the Delta_reset quiet time *)
  let c = Cluster.make ~n:7 ~skip:[ 1; 2; 3; 4; 5; 6 ] () in
  let params = c.Cluster.params in
  Engine.schedule c.Cluster.engine ~at:0.05 (fun () ->
      ignore (Node.propose (Cluster.node c 0) "v"));
  Engine.schedule c.Cluster.engine
    ~at:(0.05 +. (2.0 *. params.Params.delta_0))
    (fun () ->
      match Node.propose (Cluster.node c 0) "v2" with
      | Error Node.Blocked -> ()
      | Error e -> Alcotest.failf "unexpected: %s" (Node.string_of_propose_error e)
      | Ok () -> Alcotest.fail "IG3 violated: proposal accepted after a failed invocation");
  Cluster.run c

let test_ig3_success_does_not_block () =
  let c = Cluster.make ~n:7 () in
  let params = c.Cluster.params in
  Engine.schedule c.Cluster.engine ~at:0.05 (fun () ->
      ignore (Node.propose (Cluster.node c 0) "v"));
  Engine.schedule c.Cluster.engine
    ~at:(0.05 +. (2.0 *. params.Params.delta_0))
    (fun () ->
      check_bool "healthy General not blocked" true
        (Node.propose (Cluster.node c 0) "v2" = Ok ()));
  Cluster.run c

let test_returns_and_subscribe () =
  let c = Cluster.make ~n:7 () in
  let seen = ref 0 in
  Node.subscribe (Cluster.node c 3) (fun _ -> incr seen);
  Engine.schedule c.Cluster.engine ~at:0.05 (fun () ->
      ignore (Node.propose (Cluster.node c 0) "v"));
  Cluster.run c;
  check_int "subscriber fired once" 1 !seen;
  check_int "returns recorded" 1 (List.length (Node.returns (Cluster.node c 3)))

let test_out_of_range_general_ignored () =
  let c = Cluster.make ~n:4 () in
  (* inject garbage claiming a General outside [0, n): must be dropped *)
  Ssba_net.Network.inject_forged c.Cluster.net ~claimed_src:0 ~dst:1 ~delay:0.01
    (Types.Initiator { g = 99; v = "x" });
  Ssba_net.Network.inject_forged c.Cluster.net ~claimed_src:0 ~dst:1 ~delay:0.01
    (Types.Ia { kind = Types.Support; g = -1; v = "x" });
  Cluster.run c;
  check_int "no returns from garbage" 0 (List.length (Cluster.returns c))

let test_initiator_requires_authentic_general () =
  let c = Cluster.make ~n:7 ~skip:[ 6 ] () in
  (* node 6 (Byzantine) claims to be General 2: the Initiator payload says
     g = 2 but the network stamps src = 6, so nodes must not invoke *)
  Engine.schedule c.Cluster.engine ~at:0.05 (fun () ->
      Ssba_net.Network.broadcast c.Cluster.net ~src:6
        (Types.Initiator { g = 2; v = "forged" }));
  Cluster.run c;
  check_int "forged initiation ignored" 0 (List.length (Cluster.returns c))

let test_local_time_follows_clock () =
  let c = Cluster.make ~n:4 ~clock:`Perfect () in
  Engine.schedule c.Cluster.engine ~at:0.25 (fun () ->
      check_float "local = real for perfect clocks" 0.25
        (Node.local_time (Cluster.node c 0)));
  Cluster.run c

let suite =
  [
    case "propose ok" test_propose_ok;
    case "IG1 spacing" test_ig1_spacing;
    case "IG2 same-value spacing" test_ig2_same_value_spacing;
    case "IG3 failure blocks" test_ig3_failure_blocks;
    case "IG3 success does not block" test_ig3_success_does_not_block;
    case "returns + subscribe" test_returns_and_subscribe;
    case "out-of-range General ignored" test_out_of_range_general_ignored;
    case "Initiator authenticated" test_initiator_requires_authentic_general;
    case "local time follows clock" test_local_time_follows_clock;
  ]

let test_busy_while_running () =
  (* while the General's own instance is mid-agreement a second proposal is
     refused with Busy, even on a slow network where Delta_0 has not passed *)
  let c = Cluster.make ~n:7 ~delay:(`Fixed 0.00099) () in
  Engine.schedule c.Cluster.engine ~at:0.05 (fun () ->
      ignore (Node.propose (Cluster.node c 0) "v"));
  (* 1 ms in: the agreement is still in flight (decision needs ~4 ms) *)
  Engine.schedule c.Cluster.engine ~at:0.051 (fun () ->
      match Node.propose (Cluster.node c 0) "w" with
      | Error (Node.Busy | Node.Too_soon) -> ()
      | Error e -> Alcotest.failf "unexpected: %s" (Node.string_of_propose_error e)
      | Ok () -> Alcotest.fail "proposal accepted while running")
  ;
  Cluster.run c


(* ----- separation-guard lifecycle ----------------------------------------- *)

(* [(id, text)] for every [guardN=sep{...}] entry of a node fingerprint, in
   print order. *)
let guards_of fp =
  let tag = "guard" in
  let k = String.length tag in
  let rec go i acc =
    match String.index_from_opt fp i 'g' with
    | None -> List.rev acc
    | Some j when j + k <= String.length fp && String.sub fp j k = tag -> (
        let eq = String.index_from fp j '=' in
        match int_of_string_opt (String.sub fp (j + k) (eq - j - k)) with
        | Some id ->
            let close = String.index_from fp eq '}' in
            go (close + 1) ((id, String.sub fp (eq + 1) (close - eq)) :: acc)
        | None -> go (j + 1) acc)
    | Some j -> go (j + 1) acc
  in
  go 0 []

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* The latest last(G,m) set-time in a guard's text ("gm:v=s1,s2,;"). *)
let last_gm_stamp text =
  List.fold_left
    (fun acc part ->
      match String.index_opt part '=' with
      | Some eq when String.length part > 3 && String.sub part 0 3 = "gm:" ->
          List.fold_left
            (fun acc x -> if x = "" then acc else Float.max acc (float_of_string x))
            acc
            (String.split_on_char ',' (String.sub part (eq + 1) (String.length part - eq - 1)))
      | Some _ | None -> acc)
    neg_infinity (String.split_on_char ';' text)

let idle_guard = "sep{lg=-;sv=-;ig3=-,-,-,-}"

(* With two channels, logical General n + 1 (node 1's second channel) runs
   one agreement. Node 0 holds a guard for it while the session is live,
   keeps it after the session is collected while last(G,m) still holds
   stamps, drops it at the first tick that finds it idle, and creates a
   fresh one when a later message names that General. Node 0 is observed
   halfway between its cleanup ticks (every d from time 0, perfect clock). *)
let test_guard_lifecycle () =
  let n = 4 in
  let params = Params.default n in
  let d = params.Params.d in
  let engine = Engine.create () in
  let net =
    Ssba_net.Network.create ~engine ~n
      ~delay:(Ssba_net.Delay.fixed (0.1 *. d))
      ~rng:(Ssba_sim.Rng.create 5) ()
  in
  let nodes =
    Array.init n (fun id ->
        Node.create_on ~channels:2 ~id ~params ~clock:Ssba_sim.Clock.perfect
          ~engine ~link:(Ssba_net.Network.link net) ())
  in
  let g = n + 1 and low = 2 in
  let now = ref (0.5 *. d) in
  let observe () =
    let buf = Buffer.create 1024 in
    Node.fingerprint buf nodes.(0);
    let fp = Buffer.contents buf in
    let guards = guards_of fp in
    let ids = List.map fst guards in
    check_bool "guards print in ascending id" true (List.sort_uniq compare ids = ids);
    (contains fp (Printf.sprintf "sess%d[" g), List.assoc_opt g guards, ids)
  in
  let step () =
    now := !now +. d;
    ignore (Engine.run ~until:!now engine);
    observe ()
  in
  Engine.schedule engine ~at:(2.0 *. d) (fun () ->
      check_bool "proposal on channel 1" true
        (Node.propose ~channel:1 nodes.(1) "x" = Ok ()));
  (* a lower id joins once guard g exists, so print order is not creation
     order *)
  Engine.schedule engine ~at:(20.0 *. d) (fun () ->
      check_bool "proposal by General 2" true (Node.propose nodes.(low) "y" = Ok ()));
  let rec until ~limit what pred =
    if limit = 0 then Alcotest.failf "never observed: %s" what;
    let o = step () in
    if pred o then o else until ~limit:(limit - 1) what pred
  in
  ignore
    (until ~limit:20 "a live session with its guard" (fun (live, guard, _) ->
         live && guard <> None));
  let _, guard, _ =
    until ~limit:100 "the session collected" (fun (live, _, _) -> not live)
  in
  (match guard with
  | Some text ->
      check_bool "guard survives the session's GC with last(G,m) stamps" true
        (contains text "gm:")
  | None -> Alcotest.fail "guard dropped together with its session");
  let saw_both = ref false in
  let last_text = ref "" in
  ignore
    (until ~limit:400 "the guard dropped" (fun (live, guard, ids) ->
         check_bool "no new session meanwhile" false live;
         if ids = [ low; g ] then saw_both := true;
         match guard with
         | Some text ->
             check_bool "a guard is never left idle after a tick" false
               (text = idle_guard);
             last_text := text;
             false
         | None -> true));
  check_bool "both guards printed, lower id first" true !saw_both;
  (* dropped at the first tick past its last last(G,m) stamp's horizon: the
     tick before this observation is at !now - d/2, the previous one a whole
     d earlier *)
  let expires =
    last_gm_stamp !last_text +. Separation.last_gm_expiry params +. d
  in
  check_bool "not dropped before last(G,m) decayed" true (!now -. (0.5 *. d) > expires);
  check_bool "dropped at the first tick after" true (!now -. (1.5 *. d) <= expires);
  Engine.schedule engine ~at:(!now +. (0.1 *. d)) (fun () ->
      Ssba_net.Network.broadcast net ~src:3
        (Types.Ia { kind = Types.Support; g; v = "z" }));
  let live, guard, _ = step () in
  check_bool "a later message opens a session" true live;
  check_bool "with a fresh guard" true (guard = Some idle_guard)

(* Node 0 of four on a quiet network, with a perfect clock (so it ticks at
   0, d, 2d, ...) and room for [capacity] sessions; [live node gs] lists
   which of the Generals [gs] hold a session. *)
let lone_node ~capacity =
  let params = Params.default 4 in
  let engine = Engine.create () in
  let net =
    Ssba_net.Network.create ~engine ~n:4
      ~delay:(Ssba_net.Delay.fixed (0.1 *. params.Params.d))
      ~rng:(Ssba_sim.Rng.create 5) ()
  in
  let node =
    Node.create_on ~session_capacity:capacity ~id:0 ~params
      ~clock:Ssba_sim.Clock.perfect ~engine ~link:(Ssba_net.Network.link net) ()
  in
  (params, engine, node)

let live node gs =
  let buf = Buffer.create 256 in
  Node.fingerprint buf node;
  List.filter (fun g -> contains (Buffer.contents buf) (Printf.sprintf "sess%d[" g)) gs

let guard_text g =
  let buf = Buffer.create 128 in
  Separation.fingerprint buf g;
  Buffer.contents buf

(* The tick skips a guard no session holds until its due time, so a write
   into a dormant guard would be missed. A session's cleanup is the only
   writer, and attaching a session resets the due time: a session created,
   writing its guard and evicted between two ticks still has its guard
   swept at the next tick. *)
let test_guard_swept_after_eviction () =
  let params, engine, node = lone_node ~capacity:1 in
  let d = params.Params.d in
  let a = 1 and b = 2 in
  let guard_of g =
    Initiator_accept.guard (Ss_byz_agree.initiator_accept (Node.instance node g))
  in
  (* between the ticks at 0 and d: A's session sends a support, then B's
     session evicts it; the tick at d sweeps A's guard and sets its due time
     2 Delta_rmv later *)
  ignore (Engine.run ~until:(0.5 *. d) engine);
  let guard = guard_of a in
  Separation.record_send guard Types.Support "x" ~at:(Node.local_time node);
  ignore (Node.instance node b);
  ignore (Engine.run ~until:(1.5 *. d) engine);
  let swept_once = guard_text guard in
  (* between d and 2d: A's session comes back and plants a send time in the
     future and an expired last(G), as a transient fault might, and is
     evicted again *)
  check_bool "the same guard" true (guard_of a == guard);
  let now = Node.local_time node in
  Separation.record_send guard Types.Ready "y" ~at:(now +. (10.0 *. d));
  guard.Separation.last_g <- Some (now -. (2.0 *. Separation.last_g_expiry params));
  ignore (Node.instance node b);
  check_bool "no session holds the guard" true (live node [ a ] = []);
  ignore (Engine.run ~until:(2.5 *. d) engine);
  check_str "swept at the next tick" swept_once (guard_text guard)

(* The guard loop skips a live session's guard only if that session's
   cleanup swept it this tick. A session inserted during the table walk into
   a slot the walk has passed — by a return hook that runs inside another
   session's cleanup — was not swept, so the node sweeps its guard itself,
   as it always did. Here session S (slot 1) is corrupted into a run whose
   deadline passed without its timer; the tick at 6d aborts it from its
   cleanup, and the return hook re-opens General A's session in the free
   slot 0 and leaves a send time d/2 in the future in A's guard. The tick at
   6d must drop it; the next one, at 7d, would keep it. *)
let test_guard_swept_when_inserted_behind_the_walk () =
  let params, engine, node = lone_node ~capacity:3 in
  let d = params.Params.d in
  let x = 1 and s = 2 and a = 3 in
  (* X takes slot 0 and S slot 1; X, left quiescent, is collected at 5d *)
  ignore (Engine.run ~until:(0.5 *. d) engine);
  ignore (Node.instance node x);
  ignore (Engine.run ~until:(2.5 *. d) engine);
  let inst = Node.instance node s in
  ignore (Engine.run ~until:(5.5 *. d) engine);
  check_bool "only S is live" true (live node [ x; s; a ] = [ s ]);
  let now = Node.local_time node in
  let rec corrupt seed =
    if seed > 10_000 then Alcotest.fail "no seed leaves S running past its deadline";
    Ss_byz_agree.scramble (Ssba_sim.Rng.create seed) ~values:[ "v" ] inst;
    match (Ss_byz_agree.state inst, Ss_byz_agree.anchor inst) with
    | Ss_byz_agree.Running, Some tg
      when tg < now -. params.Params.delta_agr -. (2.0 *. d) -> ()
    | _ -> corrupt (seed + 1)
  in
  corrupt 1;
  let guard = ref None in
  Node.subscribe node (fun r ->
      if r.Types.g = s && !guard = None then begin
        let ia = Ss_byz_agree.initiator_accept (Node.instance node a) in
        let g = Initiator_accept.guard ia in
        Separation.record_send g Types.Ready "y" ~at:(Node.local_time node +. (0.5 *. d));
        guard := Some g
      end);
  ignore (Engine.run ~until:(6.5 *. d) engine);
  match !guard with
  | None -> Alcotest.fail "S never returned from its cleanup"
  | Some g ->
      check_bool "A's session is live" true (live node [ a ] = [ a ]);
      ignore (Engine.run ~until:(7.5 *. d) engine);
      check_bool "the future send time was swept at 6d" false
        (contains (guard_text g) "sr:y=")

(* The tick walks only the guards that exist, in ascending id. With eight
   channels (logical Generals 0..31), node 0 opens a session for a General
   every d, in an order that is not ascending, and stamps last(G) in its
   guard at that moment. The guard outlives its collected session until the
   stamp's horizon, so the guards drop in the order they were made, not by
   id, and a dropped General comes back with a fresh guard. After every
   tick the guards printed are exactly those whose stamp that tick kept. *)
let test_guards_made_and_dropped_out_of_order () =
  let params = Params.default 4 in
  let d = params.Params.d in
  let horizon = Separation.last_g_expiry params /. d in
  check_bool "last(G) outlives the session's grace" true (horizon > 5.0);
  let engine = Engine.create () in
  let net =
    Ssba_net.Network.create ~engine ~n:4
      ~delay:(Ssba_net.Delay.fixed (0.1 *. d))
      ~rng:(Ssba_sim.Rng.create 5) ()
  in
  let node =
    Node.create_on ~channels:8 ~id:0 ~params ~clock:Ssba_sim.Clock.perfect
      ~engine ~link:(Ssba_net.Network.link net) ()
  in
  (* (k, g): General g's guard is stamped at (k + 1/2) d *)
  let stamps =
    [ (0, 21); (1, 6); (2, 30); (3, 1); (4, 14); (5, 9); (6, 25); (9, 21); (10, 3) ]
  in
  List.iter
    (fun (k, g) ->
      Engine.schedule engine ~at:((float_of_int k +. 0.5) *. d) (fun () ->
          let guard =
            Initiator_accept.guard (Ss_byz_agree.initiator_accept (Node.instance node g))
          in
          guard.Separation.last_g <- Some (Node.local_time node)))
    stamps;
  let dropped = ref [] and before = ref [] in
  for m = 0 to 20 do
    ignore (Engine.run ~until:((float_of_int m +. 0.5) *. d) engine);
    let buf = Buffer.create 256 in
    Node.fingerprint buf node;
    let ids = List.map fst (guards_of (Buffer.contents buf)) in
    (* the tick at m d keeps a stamp set at (k + 1/2) d while
       m - k - 1/2 <= horizon *)
    let latest g =
      List.fold_left (fun acc (k, g') -> if g' = g && k <= m then max acc k else acc) (-1) stamps
    in
    let expected =
      List.sort_uniq compare
        (List.filter_map
           (fun (_, g) ->
             let k = latest g in
             if k >= 0 && float_of_int m -. float_of_int k -. 0.5 <= horizon then Some g
             else None)
           stamps)
    in
    Alcotest.(check (list int)) (Printf.sprintf "guards after the tick at %dd" m) expected ids;
    List.iter (fun g -> if not (List.mem g ids) then dropped := g :: !dropped) !before;
    before := ids
  done;
  Alcotest.(check (list int)) "dropped in the order they were made"
    [ 21; 6; 30; 1; 14; 9; 25; 21; 3 ] (List.rev !dropped)

let suite =
  suite
  @ [
      case "Busy while running" test_busy_while_running;
      case "separation guard lifecycle" test_guard_lifecycle;
      case "evicted session's guard swept next tick" test_guard_swept_after_eviction;
      case "guard swept when inserted behind the walk"
        test_guard_swept_when_inserted_behind_the_walk;
      case "guards made and dropped out of id order, channels = 8"
        test_guards_made_and_dropped_out_of_order;
    ]
