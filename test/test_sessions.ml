(* The session table (transport-ring discipline applied to protocol
   sessions): fixed capacity, deterministic least-recently-active eviction,
   predicate GC with the creation blind-spot grace, and scramble-safety —
   a transient fault corrupts values, never the capacity or occupancy. *)

open Helpers
module St = Ssba_core.Session_table
module Rng = Ssba_sim.Rng

let ignore_session ~g:_ _ = ()

let test_capacity_validated () =
  (match St.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | (_ : int St.t) -> Alcotest.fail "capacity 0 accepted");
  check_int "capacity stored" 4 (St.capacity (St.create ~capacity:4))

let test_insert_find_rekey () =
  let t : string St.t = St.create ~capacity:4 in
  St.insert t ~g:3 ~now:1.0 "alpha";
  check_bool "found" true (St.find t 3 = Some "alpha");
  check_bool "starts unanchored" true (St.anchor t 3 = None);
  St.set_anchor t 3 1.25;
  check_bool "re-keyed in place" true (St.anchor t 3 = Some 1.25);
  check_bool "payload survives re-keying" true (St.find t 3 = Some "alpha");
  (* replacing the session for the same General resets the anchor *)
  St.insert t ~g:3 ~now:2.0 "beta";
  check_bool "replaced" true (St.find t 3 = Some "beta");
  check_bool "fresh key" true (St.anchor t 3 = None);
  check_int "replacement is not growth" 1 (St.live t)

let test_eviction_least_recently_active () =
  let t : int St.t = St.create ~capacity:3 in
  St.insert t ~g:1 ~now:1.0 10;
  St.insert t ~g:2 ~now:2.0 20;
  St.insert t ~g:3 ~now:3.0 30;
  (* full: g=1 is least recently active *)
  St.insert t ~g:4 ~now:4.0 40;
  check_bool "g=1 evicted" true (St.find t 1 = None);
  check_bool "g=2 kept" true (St.find t 2 = Some 20);
  (* touching g=2 makes g=3 the victim *)
  St.touch t 2 ~now:5.0;
  St.insert t ~g:5 ~now:6.0 50;
  check_bool "g=3 evicted after g=2 touch" true (St.find t 3 = None);
  check_bool "g=2 survived" true (St.find t 2 = Some 20);
  let s = St.stats t in
  check_int "two evictions counted" 2 s.St.evicted;
  check_int "live stays at capacity" 3 s.St.live;
  check_int "peak is the capacity" 3 s.St.peak_live

let test_eviction_tie_breaks_by_creation () =
  let t : int St.t = St.create ~capacity:2 in
  St.insert t ~g:1 ~now:1.0 10;
  St.insert t ~g:2 ~now:1.0 20;
  (* equal activity times: the older creation loses *)
  St.insert t ~g:3 ~now:2.0 30;
  check_bool "older creation evicted" true (St.find t 1 = None);
  check_bool "younger kept" true (St.find t 2 = Some 20)

let test_touch_is_monotone () =
  let t : int St.t = St.create ~capacity:2 in
  St.insert t ~g:1 ~now:5.0 10;
  St.insert t ~g:2 ~now:1.0 20;
  (* a backwards touch (scrambled clock) must not demote g=1 *)
  St.touch t 1 ~now:0.5;
  St.insert t ~g:3 ~now:6.0 30;
  check_bool "backwards touch ignored" true (St.find t 1 = Some 10);
  check_bool "g=2 was still the victim" true (St.find t 2 = None)

(* Thousands of sequential sessions through a small table: the GC keeps live
   proportional to actual concurrency, the counters account for every
   insertion, and the capacity is never exceeded. *)
let test_gc_bound_under_sequential_sessions () =
  let capacity = 8 in
  let t : int ref St.t = St.create ~capacity in
  let grace = 4.0 in
  let rounds = 5000 in
  for i = 1 to rounds do
    let now = float_of_int i in
    (* a fresh session per round, cycling over many Generals *)
    St.insert t ~g:(i mod 64) ~now (ref 1);
    (* the session quiesces two rounds later *)
    St.sweep t
      ~f:(fun ~g:_ p ->
        if !p >= 0 then incr p;
        if !p > 2 then p := -1)
      ~dead:(fun ~active p -> now -. active > grace && !p < 0);
    check_bool
      (Printf.sprintf "live bounded at round %d" i)
      true
      (St.live t <= capacity)
  done;
  let s = St.stats t in
  check_bool "peak never exceeded capacity" true (s.St.peak_live <= capacity);
  check_bool "GC did the work, in the thousands" true (s.St.gced > rounds / 2);
  check_int "every insertion accounted for" rounds
    (s.St.live + s.St.evicted + s.St.gced)

let test_gc_grace_spares_newborns () =
  let t : int St.t = St.create ~capacity:4 in
  St.insert t ~g:1 ~now:10.0 0;
  (* a newborn session is indistinguishable from a dead one; the activity
     time is what lets callers grace it *)
  St.sweep t ~f:ignore_session ~dead:(fun ~active p -> 10.1 -. active > 1.0 && p = 0);
  check_bool "newborn spared" true (St.find t 1 = Some 0);
  St.sweep t ~f:ignore_session ~dead:(fun ~active p -> 20.0 -. active > 1.0 && p = 0);
  check_bool "collected once past the grace" true (St.find t 1 = None);
  check_int "counted as gced" 1 (St.stats t).St.gced

let test_scramble_corrupts_values_never_structure () =
  let t : int ref St.t = St.create ~capacity:8 in
  for g = 0 to 5 do
    St.insert t ~g ~now:(float_of_int g) (ref g)
  done;
  List.iter (fun g -> St.set_anchor t g (0.5 +. float_of_int g)) [ 0; 2; 4 ];
  let rng = Rng.create 7 in
  let corrupted = ref 0 in
  St.scramble rng
    ~rtime:(fun () -> Rng.float rng 100.0)
    ~corrupt:(fun p ->
      incr corrupted;
      p := -1)
    t;
  check_int "capacity untouched" 8 (St.capacity t);
  check_int "occupancy untouched" 6 (St.live t);
  check_int "every payload visited" 6 !corrupted;
  for g = 0 to 5 do
    match St.find t g with
    | Some p -> check_int (Printf.sprintf "g=%d payload corrupted" g) (-1) !p
    | None -> Alcotest.fail "scramble dropped a session"
  done;
  (* the table still functions: eviction and GC survive arbitrary anchors
     and activity times *)
  for g = 6 to 9 do
    St.insert t ~g ~now:200.0 (ref g)
  done;
  check_int "still at capacity" 8 (St.live t);
  St.sweep t ~f:ignore_session ~dead:(fun ~active:_ p -> !p = -1);
  check_bool "scrambled sessions collectable" true (St.live t <= 4)

(* ----- the array index against a naive association-list model ---------- *)

(* The model keeps the same facts as the table minus the slot layout:
   sessions as (g, entry), eviction by least (active, stamp), the same
   counters. General ids run past the initial index size (the capacity), so
   the index's growth path is exercised; negative ids probe absence. *)
type entry = { anchor : float option; payload : int; active : float; stamp : int }

type model = {
  cap : int;
  mutable entries : (int * entry) list;
  mutable seq : int;
  mutable peak : int;
  mutable evicted : int;
  mutable gced : int;
  mutable rejected : int;
}

type op =
  | Insert of int * float * int  (* via insert_reporting: victim compared *)
  | Try_insert of int * float * int
  | Touch of int * float
  | Set_anchor of int * float
  | Remove of int
  | Gc of float  (* sessions last active before the cutoff are dead *)

let m_live m = List.length m.entries
let m_find m g = Option.map (fun e -> e.payload) (List.assoc_opt g m.entries)

let m_anchor m g =
  Option.bind (List.assoc_opt g m.entries) (fun e -> e.anchor)

let m_insert m g now payload =
  m.entries <- List.remove_assoc g m.entries;
  let victim =
    if m_live m >= m.cap then begin
      let vg, _ =
        List.fold_left
          (fun ((_, b) as best) ((_, e) as cand) ->
            if e.active < b.active || (e.active = b.active && e.stamp < b.stamp)
            then cand
            else best)
          (List.hd m.entries) (List.tl m.entries)
      in
      m.entries <- List.remove_assoc vg m.entries;
      m.evicted <- m.evicted + 1;
      Some vg
    end
    else None
  in
  m.seq <- m.seq + 1;
  m.entries <- (g, { anchor = None; payload; active = now; stamp = m.seq }) :: m.entries;
  m.peak <- max m.peak (m_live m);
  victim

let m_update m g f =
  m.entries <- List.map (fun (g', e) -> if g' = g then (g', f e) else (g', e)) m.entries

let apply t m = function
  | Insert (g, now, p) ->
      let got = St.insert_reporting t ~g ~now p in
      got = m_insert m g now p
  | Try_insert (g, now, p) ->
      let expect =
        if List.mem_assoc g m.entries || m_live m < m.cap then begin
          ignore (m_insert m g now p);
          true
        end
        else begin
          m.rejected <- m.rejected + 1;
          false
        end
      in
      St.try_insert t ~g ~now p = expect
  | Touch (g, now) ->
      St.touch t g ~now;
      m_update m g (fun e -> if now > e.active then { e with active = now } else e);
      true
  | Set_anchor (g, a) ->
      St.set_anchor t g a;
      m_update m g (fun e -> { e with anchor = Some a });
      true
  | Remove g ->
      St.remove t g;
      m.entries <- List.remove_assoc g m.entries;
      true
  | Gc cutoff ->
      St.sweep t ~f:ignore_session ~dead:(fun ~active _ -> active < cutoff);
      let dead, kept = List.partition (fun (_, e) -> e.active < cutoff) m.entries in
      m.entries <- kept;
      m.gced <- m.gced + List.length dead;
      true

let agrees t m =
  let probes = [ min_int; -7; -1 ] @ List.init 206 Fun.id @ [ max_int ] in
  List.for_all (fun g -> St.find t g = m_find m g && St.anchor t g = m_anchor m g) probes
  && St.live t = m_live m
  && St.stats t
     = {
         St.capacity = m.cap;
         live = m_live m;
         peak_live = m.peak;
         evicted = m.evicted;
         gced = m.gced;
         rejected_at_capacity = m.rejected;
       }
  &&
  let listed = ref [] in
  St.iter_detail t (fun ~g ~anchor ~active:_ ~stamp:_ p ->
      listed := (g, anchor, p) :: !listed);
  List.sort compare !listed
  = List.sort compare (List.map (fun (g, e) -> (g, e.anchor, e.payload)) m.entries)

let gen_ops =
  QCheck.Gen.(
    (* a hot set of small ids for collisions, plus ids up to 200; times on a
       coarse grid so activity ties (the stamp tie-break) are common *)
    let id = frequency [ (3, int_bound 6); (2, int_bound 200) ] in
    let any_id = frequency [ (6, id); (1, int_range (-3) (-1)) ] in
    let time = map float_of_int (int_bound 12) in
    pair (int_range 1 6)
      (list_size (int_range 1 80)
         (frequency
            [
              (5, map3 (fun g t p -> Insert (g, t, p)) id time small_nat);
              (3, map3 (fun g t p -> Try_insert (g, t, p)) id time small_nat);
              (3, map2 (fun g t -> Touch (g, t)) any_id time);
              (2, map2 (fun g t -> Set_anchor (g, t +. 0.5)) any_id time);
              (2, map (fun g -> Remove g) any_id);
              (1, map (fun t -> Gc t) time);
            ])))

let print_op = function
  | Insert (g, t, p) -> Printf.sprintf "insert %d@%g=%d" g t p
  | Try_insert (g, t, p) -> Printf.sprintf "try_insert %d@%g=%d" g t p
  | Touch (g, t) -> Printf.sprintf "touch %d@%g" g t
  | Set_anchor (g, a) -> Printf.sprintf "anchor %d=%g" g a
  | Remove g -> Printf.sprintf "remove %d" g
  | Gc t -> Printf.sprintf "gc <%g" t

let prop_matches_model =
  QCheck.Test.make ~name:"array-indexed table matches an association-list model"
    ~count:400
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d: %s" cap
           (String.concat "; " (List.map print_op ops)))
       gen_ops)
    (fun (cap, ops) ->
      let t : int St.t = St.create ~capacity:cap in
      let m =
        { cap; entries = []; seq = 0; peak = 0; evicted = 0; gced = 0; rejected = 0 }
      in
      List.for_all (fun op -> apply t m op && agrees t m) ops)

(* ----- the sweep against the walks it replaced --------------------------- *)

(* [sweep ~f ~dead] must be the two walks it replaced, run back to back:
   [f] over the slots in order, each slot read when the walk reaches it (the
   old [iter], which [iter_detail] still is), then collection over the table
   [f] left behind (the old [gc]). The reference runs exactly that on a twin
   table, collecting through [iter_detail] and [remove]. Here [f] re-enters
   the table as a session's cleanup can, through return hooks that propose:
   depending on the session's payload it inserts (evicting when full),
   touches or removes another session, so the order of visits, the slots
   that inserts land in and what collection sees all matter. The visits,
   the slot layout and every counter must agree after each step. *)
type step =
  | Ins of int * float * int
  | Tch of int * float
  | Rem of int
  | Sweep of float * int  (* cutoff, action seed *)

let react t ~seed ~cutoff ~visited ~g p =
  visited := (g, p) :: !visited;
  match (p + g + seed) mod 5 with
  | 0 -> St.insert t ~g:(((3 * g) + seed) mod 9) ~now:(float_of_int (seed mod 13)) (p + 1)
  | 1 -> St.touch t ((g + 1) mod 9) ~now:(cutoff +. 1.0)
  | 2 -> St.remove t ((g + 2) mod 9)
  | _ -> ()

let layout t =
  let l = ref [] in
  St.iter_detail t (fun ~g ~anchor ~active ~stamp p ->
      l := (g, anchor, active, stamp, p) :: !l);
  List.rev !l

let gen_steps =
  QCheck.Gen.(
    let id = int_bound 8 and time = map float_of_int (int_bound 12) in
    pair (int_range 1 6)
      (list_size (int_range 1 60)
         (frequency
            [
              (5, map3 (fun g t p -> Ins (g, t, p)) id time small_nat);
              (2, map2 (fun g t -> Tch (g, t)) id time);
              (1, map (fun g -> Rem g) id);
              (3, map2 (fun t seed -> Sweep (float_of_int t, seed)) (int_bound 14) small_nat);
            ])))

let print_step = function
  | Ins (g, t, p) -> Printf.sprintf "insert %d@%g=%d" g t p
  | Tch (g, t) -> Printf.sprintf "touch %d@%g" g t
  | Rem g -> Printf.sprintf "remove %d" g
  | Sweep (cutoff, seed) -> Printf.sprintf "sweep <%g seed %d" cutoff seed

let prop_sweep_matches_walks =
  QCheck.Test.make ~name:"sweep is iter then gc, even when f re-enters" ~count:400
    (QCheck.make
       ~print:(fun (cap, steps) ->
         Printf.sprintf "capacity %d: %s" cap
           (String.concat "; " (List.map print_step steps)))
       gen_steps)
    (fun (cap, steps) ->
      let t : int St.t = St.create ~capacity:cap
      and r : int St.t = St.create ~capacity:cap in
      let r_gced = ref 0 in
      let both f = f t; f r in
      List.for_all
        (fun step ->
          (match step with
          | Ins (g, now, p) -> both (fun x -> St.insert x ~g ~now p)
          | Tch (g, now) -> both (fun x -> St.touch x g ~now)
          | Rem g -> both (fun x -> St.remove x g)
          | Sweep (cutoff, seed) ->
              let vt = ref [] and vr = ref [] in
              St.sweep t
                ~f:(fun ~g p -> react t ~seed ~cutoff ~visited:vt ~g p)
                ~dead:(fun ~active _ -> active < cutoff);
              St.iter_detail r (fun ~g ~anchor:_ ~active:_ ~stamp:_ p ->
                  react r ~seed ~cutoff ~visited:vr ~g p);
              St.iter_detail r (fun ~g ~anchor:_ ~active ~stamp:_ _ ->
                  if active < cutoff then begin
                    St.remove r g;
                    incr r_gced
                  end);
              if !vt <> !vr then QCheck.Test.fail_report "visits differ");
          layout t = layout r && St.stats t = { (St.stats r) with St.gced = !r_gced })
        steps)

(* ----- the bounded walk against a walk over every slot ------------------ *)

(* [sweep]'s two loops stop one past the highest occupied slot. The model
   below keeps its own slot array, fills and evicts it as the table does,
   and sweeps by walking every one of its [capacity] slots in both phases.
   Random inserts, admission-controlled inserts, removes and touches under
   capacity pressure (ids 0..11 over at most 6 slots) alternate with
   sweeps whose [f] inserts, touches or removes a session, as a return hook
   can. The visits, the collections (in order), the slot layout and every
   counter must agree after each step. *)
type wslot = { wg : int; wp : int; mutable wact : float; wstamp : int }

type walk_model = {
  wslots : wslot option array;
  mutable wseq : int;
  mutable wlive : int;
  mutable wpeak : int;
  mutable wevicted : int;
  mutable wgced : int;
  mutable wrejected : int;
}

let w_slot_of w g =
  let found = ref (-1) in
  Array.iteri
    (fun i s -> match s with Some s when s.wg = g -> found := i | _ -> ())
    w.wslots;
  !found

let w_insert w ~g ~now p =
  (match w_slot_of w g with
  | -1 -> ()
  | i ->
      w.wslots.(i) <- None;
      w.wlive <- w.wlive - 1);
  let i =
    if w.wlive >= Array.length w.wslots then begin
      let best = ref (-1) in
      Array.iteri
        (fun i s ->
          match (s, !best) with
          | None, _ -> ()
          | Some _, -1 -> best := i
          | Some s, b ->
              let o = Option.get w.wslots.(b) in
              if s.wact < o.wact || (s.wact = o.wact && s.wstamp < o.wstamp) then
                best := i)
        w.wslots;
      w.wslots.(!best) <- None;
      w.wlive <- w.wlive - 1;
      w.wevicted <- w.wevicted + 1;
      !best
    end
    else begin
      let i = ref 0 in
      while w.wslots.(!i) <> None do
        incr i
      done;
      !i
    end
  in
  w.wseq <- w.wseq + 1;
  w.wslots.(i) <- Some { wg = g; wp = p; wact = now; wstamp = w.wseq };
  w.wlive <- w.wlive + 1;
  w.wpeak <- max w.wpeak w.wlive

let w_try_insert w ~g ~now p =
  if w_slot_of w g >= 0 || w.wlive < Array.length w.wslots then begin
    w_insert w ~g ~now p;
    true
  end
  else begin
    w.wrejected <- w.wrejected + 1;
    false
  end

let w_touch w g ~now =
  match w_slot_of w g with
  | -1 -> ()
  | i ->
      let s = Option.get w.wslots.(i) in
      if now > s.wact then s.wact <- now

let w_remove w g =
  match w_slot_of w g with
  | -1 -> ()
  | i ->
      w.wslots.(i) <- None;
      w.wlive <- w.wlive - 1

let w_sweep w ~f ~dead =
  let cap = Array.length w.wslots in
  for i = 0 to cap - 1 do
    match w.wslots.(i) with Some s -> f ~g:s.wg s.wp | None -> ()
  done;
  for i = 0 to cap - 1 do
    match w.wslots.(i) with
    | Some s when dead ~active:s.wact s.wp ->
        w.wslots.(i) <- None;
        w.wlive <- w.wlive - 1;
        w.wgced <- w.wgced + 1
    | Some _ | None -> ()
  done

(* What [f] does on visiting session [g] with payload [p]: the same for the
   table and the model. *)
type reaction = R_insert of int * float * int | R_touch of int * float | R_remove of int | R_none

let reaction ~seed ~g p =
  match (p + (3 * g) + seed) mod 6 with
  | 0 -> R_insert ((g + seed) mod 12, float_of_int (seed mod 9), (p * 31) + g + 1)
  | 1 -> R_insert ((g + 5) mod 12, 4.5, p + 1000)
  | 2 -> R_touch ((g + 1) mod 12, float_of_int ((seed + p) mod 11))
  | 3 -> R_remove ((g + seed) mod 12)
  | _ -> R_none

type wstep =
  | W_insert of int * float * int
  | W_try of int * float * int
  | W_remove of int
  | W_touch of int * float
  | W_sweep of float * int  (* cutoff, reaction seed *)

let print_wstep = function
  | W_insert (g, t, p) -> Printf.sprintf "insert %d@%g=%d" g t p
  | W_try (g, t, p) -> Printf.sprintf "try_insert %d@%g=%d" g t p
  | W_remove g -> Printf.sprintf "remove %d" g
  | W_touch (g, t) -> Printf.sprintf "touch %d@%g" g t
  | W_sweep (c, seed) -> Printf.sprintf "sweep <%g seed %d" c seed

let gen_wsteps =
  QCheck.Gen.(
    let id = int_bound 11 and time = map float_of_int (int_bound 10) in
    pair (int_range 1 6)
      (list_size (int_range 1 80)
         (frequency
            [
              (5, map3 (fun g t p -> W_insert (g, t, p)) id time small_nat);
              (3, map3 (fun g t p -> W_try (g, t, p)) id time small_nat);
              (2, map (fun g -> W_remove g) id);
              (2, map2 (fun g t -> W_touch (g, t)) id time);
              (3, map2 (fun c seed -> W_sweep (float_of_int c, seed)) (int_bound 12) small_nat);
            ])))

let prop_bounded_walk_matches_full_walk =
  QCheck.Test.make ~name:"bounded sweep visits and collects as a walk over every slot"
    ~count:500
    (QCheck.make
       ~print:(fun (cap, steps) ->
         Printf.sprintf "capacity %d: %s" cap
           (String.concat "; " (List.map print_wstep steps)))
       gen_wsteps)
    (fun (cap, steps) ->
      let t : int St.t = St.create ~capacity:cap in
      let w =
        {
          wslots = Array.make cap None;
          wseq = 0;
          wlive = 0;
          wpeak = 0;
          wevicted = 0;
          wgced = 0;
          wrejected = 0;
        }
      in
      let layout_of_model () =
        List.filter_map
          (fun s -> Option.map (fun s -> (s.wg, s.wact, s.wstamp, s.wp)) s)
          (Array.to_list w.wslots)
      in
      let layout_of_table () =
        let l = ref [] in
        St.iter_detail t (fun ~g ~anchor:_ ~active ~stamp p ->
            l := (g, active, stamp, p) :: !l);
        List.rev !l
      in
      List.for_all
        (fun step ->
          let same =
            match step with
            | W_insert (g, now, p) ->
                St.insert t ~g ~now p;
                w_insert w ~g ~now p;
                true
            | W_try (g, now, p) -> St.try_insert t ~g ~now p = w_try_insert w ~g ~now p
            | W_remove g ->
                St.remove t g;
                w_remove w g;
                true
            | W_touch (g, now) ->
                St.touch t g ~now;
                w_touch w g ~now;
                true
            | W_sweep (cutoff, seed) ->
                let visits_t = ref [] and visits_w = ref [] in
                let gc_t = ref [] and gc_w = ref [] in
                let dead gc ~active p =
                  let d = active < cutoff || p mod 7 = 0 in
                  if d then gc := p :: !gc;
                  d
                in
                St.sweep t
                  ~f:(fun ~g p ->
                    visits_t := (g, p) :: !visits_t;
                    match reaction ~seed ~g p with
                    | R_insert (g', now, p') -> St.insert t ~g:g' ~now p'
                    | R_touch (g', now) -> St.touch t g' ~now
                    | R_remove g' -> St.remove t g'
                    | R_none -> ())
                  ~dead:(dead gc_t);
                w_sweep w
                  ~f:(fun ~g p ->
                    visits_w := (g, p) :: !visits_w;
                    match reaction ~seed ~g p with
                    | R_insert (g', now, p') -> w_insert w ~g:g' ~now p'
                    | R_touch (g', now) -> w_touch w g' ~now
                    | R_remove g' -> w_remove w g'
                    | R_none -> ())
                  ~dead:(dead gc_w);
                !visits_t = !visits_w && !gc_t = !gc_w
          in
          same
          && layout_of_table () = layout_of_model ()
          && St.stats t
             = {
                 St.capacity = cap;
                 live = w.wlive;
                 peak_live = w.wpeak;
                 evicted = w.wevicted;
                 gced = w.wgced;
                 rejected_at_capacity = w.wrejected;
               })
        steps)

let test_negative_ids_absent () =
  let t : int St.t = St.create ~capacity:2 in
  St.insert t ~g:0 ~now:1.0 10;
  List.iter
    (fun g ->
      check_bool "absent" true (St.find t g = None && St.anchor t g = None);
      St.touch t g ~now:5.0;
      St.set_anchor t g 1.0;
      St.remove t g)
    [ -1; -2; min_int ];
  check_bool "the real session untouched" true (St.find t 0 = Some 10);
  check_int "still one live" 1 (St.live t);
  Alcotest.check_raises "inserting a negative id is refused"
    (Invalid_argument "Session_table.insert: negative General id") (fun () ->
      St.insert t ~g:(-1) ~now:2.0 0)

let suite =
  [
    case "capacity validated" test_capacity_validated;
    case "insert, find, re-key" test_insert_find_rekey;
    case "evicts least recently active" test_eviction_least_recently_active;
    case "eviction tie-break by creation" test_eviction_tie_breaks_by_creation;
    case "touch is monotone" test_touch_is_monotone;
    case "GC bound over 5000 sequential sessions" test_gc_bound_under_sequential_sessions;
    case "GC grace spares newborns" test_gc_grace_spares_newborns;
    case "scramble corrupts values, never structure" test_scramble_corrupts_values_never_structure;
    qcheck prop_matches_model;
    qcheck prop_sweep_matches_walks;
    case "negative ids absent, never raise" test_negative_ids_absent;
    qcheck prop_bounded_walk_matches_full_walk;
  ]
