(* Tests for the network's pooled delivery arena.

   The fan-out pool makes "steady-state delivery allocates nothing"
   checkable: descriptors and delivery slots are counted by monotonic
   metrics ([net.pool.fanouts] / [net.pool.slots]), so a recycling bug
   shows up as counter growth, not as a profiler session. The sizing test
   pins that a single send takes a 1-slot descriptor and a broadcast an
   n-slot one, each from its own free stack. One envelope serves every
   delivery of the network, rewritten per delivery; the envelope tests pin
   what every handler (and the delay override) must still see. The
   scramble tests hold the arena to the Session_table safety
   pattern: a transient fault may trash pooled VALUES, never the pool's
   capacity or occupancy — and since free descriptors are fully overwritten
   on acquire, delivered payloads are unaffected. *)

open Helpers
module Engine = Ssba_sim.Engine
module Metrics = Ssba_sim.Metrics
module Rng = Ssba_sim.Rng
module Net = Ssba_net.Network
module Msg = Ssba_net.Msg
module Delay = Ssba_net.Delay

let mk ?(n = 5) ?(delay = Delay.fixed 0.1) () =
  let engine = Engine.create () in
  let net = Net.create ~engine ~n ~delay ~rng:(Rng.create 1) () in
  (engine, net)

(* One broadcast = one descriptor armed; draining returns it to the free
   stack. Repeating the cycle must reuse the same descriptor and slots. *)
let test_slot_reuse_after_pop () =
  let engine, net = mk () in
  Net.broadcast net ~src:0 "warm";
  ignore (Engine.run engine);
  let fanouts = counter engine "net.pool.fanouts" in
  let slots = counter engine "net.pool.slots" in
  let free = Net.pool_free net in
  check_bool "warm-up allocated a descriptor" true (fanouts >= 1);
  check_bool "descriptor back in the free stack" true (free >= 1);
  for i = 1 to 50 do
    Net.broadcast net ~src:(i mod 5) "again";
    ignore (Engine.run engine)
  done;
  check_int "no new descriptors in steady state" fanouts
    (counter engine "net.pool.fanouts");
  check_int "no new delivery slots in steady state" slots
    (counter engine "net.pool.slots");
  check_int "free stack back to its resting level" free (Net.pool_free net)

(* The allocation-counter assertion, against the shared metrics registry:
   after the peak concurrent need is reached, the monotonic pool counters
   freeze — delivery allocates zero pool slots beyond peak. *)
let test_zero_alloc_beyond_peak () =
  let engine, net = mk () in
  (* peak: 8 overlapping broadcasts in flight at once *)
  for k = 0 to 7 do
    Engine.schedule engine ~at:(0.01 *. float_of_int k) (fun () ->
        Net.broadcast net ~src:(k mod 5) "peak")
  done;
  ignore (Engine.run engine);
  let m = Engine.metrics engine in
  let peak_fanouts = Metrics.find_counter m "net.pool.fanouts" in
  let peak_slots = Metrics.find_counter m "net.pool.slots" in
  check_bool "counters registered" true
    (peak_fanouts <> None && peak_slots <> None);
  check_float "nothing armed after the drain" 0.0
    (Option.value ~default:(-1.0) (Metrics.find_gauge m "net.pool.in_use"));
  (* steady state: the same pattern, many times over *)
  for round = 1 to 20 do
    for k = 0 to 7 do
      Engine.schedule engine
        ~at:(Engine.now engine +. (0.01 *. float_of_int k))
        (fun () -> Net.broadcast net ~src:((round + k) mod 5) "steady")
    done;
    ignore (Engine.run engine)
  done;
  check_bool "zero descriptors allocated beyond peak" true
    (Metrics.find_counter m "net.pool.fanouts" = peak_fanouts);
  check_bool "zero delivery slots allocated beyond peak" true
    (Metrics.find_counter m "net.pool.slots" = peak_slots)

(* Growing the arena past 256 descriptors must not force a minor
   collection. Its descriptor and payload columns hold young values, and
   [Array.make] past 256 words with a young filler runs a minor collection
   first. 300 broadcasts in flight at once, made after a [Gc.minor ()] so
   every descriptor is young, grow the columns and the free stack to 512
   rows; their allocation stays well below the minor heap's 256k
   words. *)
let test_free_stack_growth_no_minor_gc () =
  let engine, net = mk () in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for k = 0 to 299 do
    Net.broadcast net ~src:(k mod 5) "in flight"
  done;
  ignore (Engine.run engine);
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  check_int "every descriptor back on the free stack" 300 (Net.pool_free net);
  check_int "no minor collection" before after

(* Scrambling the free pool: occupancy and capacity invariant, deliveries
   unaffected (acquire fully overwrites a slot before arming it). *)
let test_scramble_preserves_pool_shape () =
  let engine, net = mk () in
  Net.broadcast net ~src:0 "warm";
  ignore (Engine.run engine);
  let fanouts = counter engine "net.pool.fanouts" in
  let slots = counter engine "net.pool.slots" in
  let free = Net.pool_free net in
  Net.scramble_pool net ~payload:(fun rng ->
      Printf.sprintf "garbage-%d" (Rng.int rng 1000));
  check_int "scramble kept every descriptor" fanouts
    (counter engine "net.pool.fanouts");
  check_int "scramble kept every slot" slots
    (counter engine "net.pool.slots");
  check_int "scramble kept occupancy" free (Net.pool_free net);
  (* recycled slots were trashed, yet the next broadcast delivers clean *)
  let got = ref [] in
  for i = 0 to 4 do
    Net.set_handler net i (fun msg -> got := msg.Ssba_net.Msg.payload :: !got)
  done;
  Net.broadcast net ~src:2 "clean";
  ignore (Engine.run engine);
  check_int "all deliveries arrived" 5 (List.length !got);
  check_bool "no garbage leaked into deliveries" true
    (List.for_all (String.equal "clean") !got);
  check_int "and still no fresh allocation" fanouts
    (counter engine "net.pool.fanouts")

(* Scrambling must not perturb the delivery schedule either: the arena has
   its own RNG stream, so a run with mid-flight pool scrambles draws the
   same delays as one without. *)
let test_scramble_digest_neutral () =
  let deliveries scramble =
    let engine, net = mk ~delay:(Delay.uniform ~lo:0.01 ~hi:0.2) () in
    let log = ref [] in
    for i = 0 to 4 do
      Net.set_handler net i (fun msg ->
          log := (Engine.now engine, i, msg.Ssba_net.Msg.payload) :: !log)
    done;
    for k = 0 to 9 do
      Engine.schedule engine ~at:(0.05 *. float_of_int k) (fun () ->
          if scramble then
            Net.scramble_pool net ~payload:(fun rng ->
                Printf.sprintf "junk-%d" (Rng.int rng 1000));
          Net.broadcast net ~src:(k mod 5) (Printf.sprintf "m%d" k))
    done;
    ignore (Engine.run engine);
    List.rev !log
  in
  check_bool "scrambled and clean runs deliver identically" true
    (deliveries false = deliveries true)

(* A broadcast to n receivers takes n slots, not 2n; a duplicated copy is
   the only thing that grows a descriptor past them. *)
let test_slots_per_descriptor () =
  let n = 7 in
  let engine, net = mk ~n () in
  let got = ref 0 in
  for i = 0 to n - 1 do
    Net.set_handler net i (fun _ -> incr got)
  done;
  Net.broadcast net ~src:0 "one";
  ignore (Engine.run engine);
  check_int "one descriptor" 1 (counter engine "net.pool.fanouts");
  check_int "n slots for n receivers" n (counter engine "net.pool.slots");
  Net.set_dup_prob net 1.0;
  Net.broadcast net ~src:1 "twice";
  ignore (Engine.run engine);
  check_int "the same descriptor, recycled" 1
    (counter engine "net.pool.fanouts");
  check_int "duplicates grew it to 2n" (2 * n)
    (counter engine "net.pool.slots");
  check_int "every copy delivered" (n + (2 * n)) !got

(* Every handler gets its own id as [dst] and the sender's src and
   payload, although one envelope serves every delivery — under loss,
   duplication at probability 1 (which pushes descriptors past their
   slots), reordering, forged injections and a delay override that reads
   [dst]. *)
let test_shared_envelope_fields () =
  let n = 7 in
  let engine, net = mk ~n ~delay:(Delay.uniform ~lo:0.01 ~hi:0.2) () in
  Net.set_drop_prob net 0.3;
  Net.set_dup_prob net 1.0;
  Net.set_reorder net (Some { Net.prob = 0.5; extra = 0.3 });
  (* the override sees each slot's destination; it slows even receivers *)
  let routed = ref [] in
  Net.set_delay_override net
    (Some
       (fun ~src:_ ~dst payload ->
         routed := (payload, dst) :: !routed;
         if dst mod 2 = 0 then Some (0.05 *. float_of_int (dst + 1)) else None));
  let got = ref [] in
  for i = 0 to n - 1 do
    Net.set_handler net i (fun m ->
        got := (i, m.Msg.dst, m.Msg.src, m.Msg.payload) :: !got)
  done;
  (* payload -> (src, forged) *)
  let sent = Hashtbl.create 16 in
  for k = 0 to 11 do
    let at = 0.04 *. float_of_int k in
    Engine.schedule engine ~at (fun () ->
        let payload = Printf.sprintf "m%d" k in
        if k mod 4 = 3 then begin
          Hashtbl.replace sent payload (5, true);
          Net.inject_forged net ~claimed_src:5 ~dst:(k mod n) ~delay:0.1 payload
        end
        else begin
          Hashtbl.replace sent payload (k mod n, false);
          Net.broadcast net ~src:(k mod n) payload
        end)
  done;
  ignore (Engine.run engine);
  check_int "conservation"
    (counter engine "net.sent" + counter engine "net.duplicated")
    (counter engine "net.delivered" + counter engine "net.dropped");
  (* the forged injections, never two in flight at once, share one 1-slot
     descriptor; the rest are broadcast descriptors of n slots and more *)
  check_bool "broadcast descriptors grew past n slots" true
    (counter engine "net.pool.slots" - 1
    > n * (counter engine "net.pool.fanouts" - 1));
  check_int "every delivery reached a handler"
    (counter engine "net.delivered")
    (List.length !got);
  List.iter
    (fun (i, dst, src, payload) ->
      let src', _ = Hashtbl.find sent payload in
      check_int "dst is the receiving handler's id" i dst;
      check_int (payload ^ ": src") src' src)
    !got;
  (* each routed (payload, dst) arrives twice (dup_prob 1), and nothing
     arrives that the override did not route, forged injections aside *)
  let broadcast_deliveries =
    List.filter_map
      (fun (i, _, _, payload) ->
        if snd (Hashtbl.find sent payload) then None else Some (payload, i))
      !got
    |> List.sort compare
  in
  let routed_twice =
    List.concat_map (fun r -> [ r; r ]) !routed |> List.sort compare
  in
  check_bool "the override saw every delivered slot's dst" true
    (broadcast_deliveries = routed_twice)

(* A single send or forged injection takes a 1-slot descriptor, a
   broadcast an n-slot one, each from its own free stack: singles first
   (four in flight at once), then a broadcast once they have drained, so a
   1-slot descriptor on the wrong stack would serve the broadcast and grow.
   A second identical round allocates nothing. A duplicated copy grows a
   single send's descriptor by one slot. *)
let test_descriptor_sizing () =
  let n = 7 in
  let engine, net = mk ~n () in
  let got = ref 0 in
  for i = 0 to n - 1 do
    Net.set_handler net i (fun _ -> incr got)
  done;
  let round () =
    for k = 0 to 2 do
      Net.send net ~src:k ~dst:(k + 1) "single"
    done;
    Net.inject_forged net ~claimed_src:5 ~dst:0 ~delay:0.1 "forged";
    ignore (Engine.run engine);
    Net.broadcast net ~src:0 "wide";
    ignore (Engine.run engine)
  in
  round ();
  check_int "four 1-slot descriptors and one n-slot one" 5
    (counter engine "net.pool.fanouts");
  check_int "4 + n slots" (4 + n) (counter engine "net.pool.slots");
  check_int "all five free again" 5 (Net.pool_free net);
  round ();
  check_int "the second round made no descriptor" 5
    (counter engine "net.pool.fanouts");
  check_int "and no slot" (4 + n) (counter engine "net.pool.slots");
  check_int "every delivery arrived" (2 * (4 + n)) !got;
  Net.set_dup_prob net 1.0;
  Net.send net ~src:1 ~dst:2 "twice";
  ignore (Engine.run engine);
  check_int "the duplicate grew a 1-slot descriptor to 2" (4 + n + 1)
    (counter engine "net.pool.slots");
  check_int "still five descriptors" 5 (counter engine "net.pool.fanouts")

let suite =
  [
    case "slot reuse after pop" test_slot_reuse_after_pop;
    case "zero pool allocation beyond peak" test_zero_alloc_beyond_peak;
    case "scramble preserves pool shape" test_scramble_preserves_pool_shape;
    case "scramble is digest-neutral" test_scramble_digest_neutral;
    case "n slots per descriptor, growth only for duplicates"
      test_slots_per_descriptor;
    case "shared envelope: per-slot dst, sender's fields" test_shared_envelope_fields;
    case "free-stack growth forces no minor collection"
      test_free_stack_growth_no_minor_gc;
    case "descriptors sized to their send: 1 slot per single, n per broadcast"
      test_descriptor_sizing;
  ]
