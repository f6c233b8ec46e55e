(* Seeded random scenario generation.

   The interesting part is staying inside the paper's model while still
   covering its corners: any f < n/3 Byzantine cast with any strategy mix is
   fair game forever, but network faults and crashes of *correct* nodes are
   transient — each gets a paired Recover/Heal, and the horizon leaves
   Delta_stb after the last disruption so the oracle judges the run after
   re-stabilization, exactly how the paper states its guarantees. *)

module Rng = Ssba_sim.Rng
module P = Ssba_core.Params
module S = Ssba_harness.Scenario
module C = Ssba_adversary.Catalog
module Ch = Ssba_harness.Chaos
module T = Ssba_transport.Transport
module W = Ssba_service.Workload
module D = Ssba_net.Delay

type config = {
  max_n : int;
  max_cast : int;
  max_proposals : int;
  max_disruptions : int;
  disruptions : bool;
  transport : T.config option;
  max_link_faults : int;
  chaos : bool;
  r_slack : P.r_slack;  (* block R gate variant for every generated spec *)
  edge_delays : bool;
      (* boundary sampling: admit the Edge delay model and the Gate_edge
         catalog entry into the draw menus. Off reproduces the historical
         RNG draw sequence bit-for-bit (the legacy corpus digests). *)
  service : bool;
      (* overload tier: stamp every spec with a generated service workload
         (open-loop arrivals + bursts, watermarks, bounded retry queue).
         The extra draws happen only when set, so the other tiers' RNG
         streams — and their pinned corpus digests — are untouched. *)
}

(* The payload vocabulary of every tier. *)
let values = [ "alpha"; "beta"; "gamma" ]

let default_config =
  {
    max_n = 10;
    max_cast = 3;
    max_proposals = 3;
    max_disruptions = 2;
    disruptions = true;
    transport = None;
    max_link_faults = 0;
    chaos = false;
    r_slack = P.default_r_slack;
    edge_delays = true;
    service = false;
  }

(* The lossy campaign: every spec runs the transport over links with
   persistent loss (p up to 0.3), duplication and reordering. Transient
   disruptions are off so the only faults are the ones the transport claims
   to mask — which keeps every generated spec in the oracle's "reliable"
   class, i.e. Validity/Termination/Timeliness are checked on all of them.
   rto = 3 delta covers a send plus its ack plus processing slack. *)
let lossy_config =
  let delta = (P.default 4).P.delta in
  {
    default_config with
    disruptions = false;
    transport = Some (T.config ~rto:(3.0 *. delta) ());
    max_link_faults = 3;
  }

(* The churn tier: every spec is a continuous-churn schedule — repeated
   disruptions, each followed by an in-window recovery probe and a
   post-[Delta_stb] entitled probe. Episodes are [Delta_stb]-long, so keep
   the clusters small. *)
let chaos_config = { default_config with max_n = 7; max_cast = 2; chaos = true }

(* The overload tier: every spec runs the recurrent-agreement service under
   open-loop load with arrival bursts, over a transport with persistent link
   faults (masked, so the agreement guarantees stay checkable), plus at most
   one transient churn group. No scheduled proposals — all agreement traffic
   comes from the service driver, judged by the value-based service oracle
   plus the queue/shed/drain trace checks. *)
let overload_config =
  let delta = (P.default 4).P.delta in
  {
    default_config with
    max_n = 7;
    max_cast = 2;
    max_proposals = 0;
    max_disruptions = 1;
    (* The service runs tens of concurrent sessions; a burst floods a link
       with far more than the default 64 unacked frames before any ack
       clears a slot, and a ring overrun silently abandons the overwritten
       frame's reliability — one lost transmission then stalls that node's
       IA forever. Provision the pending/dedup rings for that concurrency. *)
    transport = Some (T.config ~rto:(3.0 *. delta) ~window:1024 ~dedup:2048 ());
    max_link_faults = 2;
    service = true;
  }

let last_activity spec =
  let times =
    List.map S.event_time spec.Spec.events
    @ List.map (fun (p : S.proposal) -> p.S.at) spec.Spec.proposals
    @ List.concat_map (fun (_, c) -> C.activity_times c) spec.Spec.cast
  in
  List.fold_left max 0.0 times

let min_horizon spec =
  let params = Spec.params spec in
  let disruptive =
    S.disruptive_event ~masked_link_faults:(spec.Spec.transport <> None)
  in
  let tail =
    (* Only disruptions need the stabilization allowance; transport-masked
       link faults don't suspend the guarantees (and their inflated
       [delta_stb] would balloon the horizon for nothing). *)
    if List.exists disruptive spec.Spec.events then
      params.P.delta_stb
    else 0.0
  in
  let service_tail =
    (* A service spec must drain after arrivals stop: the worst retry chain
       (generated budgets cap at 4 attempts over ~[Delta_0]-scaled backoff)
       plus session GC fits comfortably inside 1.5 [Delta_stb] — the slack
       that makes the oracle's eventual-drain check provable. *)
    match spec.Spec.service with
    | None -> 0.0
    | Some w -> w.W.stop_at +. (1.5 *. params.P.delta_stb)
  in
  Float.max (last_activity spec +. tail) service_tail
  +. params.P.delta_agr +. (10.0 *. params.P.d)

let spec rng cfg =
  let n = Rng.int_in_range rng ~lo:4 ~hi:(max 4 cfg.max_n) in
  let f = P.max_faults n in
  let params = P.default n in
  (* Active window: everything the cast, proposals and events do happens in
     [0, active]; its width scales with how much is scheduled. *)
  let active = 3.0 *. params.P.delta_agr in
  (* Byzantine cast. *)
  let n_byz = Rng.int rng (min f cfg.max_cast + 1) in
  let byz_ids =
    Array.to_list (Rng.subset rng ~k:n_byz (Array.init n Fun.id))
    |> List.sort compare
  in
  let cast =
    List.map
      (fun id ->
        ( id,
          C.generate ~edges:cfg.edge_delays rng ~values ~at_lo:0.01
            ~at_hi:active ~n ))
      byz_ids
  in
  (* Boundary atoms for the Edge delay model: for each comparison boundary
     [b*d] (the 3d skew deadline, the 4d and 5d block-R gates), a legal
     per-hop delay that divides it exactly — so a chain of hops can land on
     the boundary to the last float bit — plus the interior extremes. *)
  let edge_atoms () =
    let boundary b =
      let target = b *. params.P.d in
      target /. Float.of_int (int_of_float (Float.ceil (target /. params.P.delta)))
    in
    D.Edge
      {
        atoms =
          [
            0.05 *. params.P.delta;
            boundary 3.0;
            boundary 4.0;
            boundary 5.0;
            params.P.delta;
          ];
      }
  in
  let correct = List.filter (fun id -> not (List.mem id byz_ids)) (List.init n Fun.id) in
  if cfg.chaos then begin
    (* Churn tier: the whole proposal/event schedule comes from one chaos
       pattern — deterministic given the pattern, so the only draws past this
       point are the pattern choice and the shared delay/clock/seed draws. *)
    let pattern =
      List.nth Ch.all_patterns (Rng.int rng (List.length Ch.all_patterns))
    in
    let sched =
      Ch.schedule ~episodes:2 pattern ~params ~correct ~byzantine:byz_ids
    in
    let seed = Rng.bits rng land 0x3FFFFFFF in
    let draft =
      {
        Spec.name =
          Printf.sprintf "chaos-%s-n%d-%d" (Ch.pattern_name pattern) n
            (seed land 0xFFFFFF);
        seed;
        n;
        f;
        delay =
          (* Half the churn specs run on boundary atoms so recovery windows
             get probed at the comparison edges too; the extra draw only
             happens when [edge_delays] is on, keeping the legacy stream. *)
          (if cfg.edge_delays && Rng.bool rng then edge_atoms ()
           else D.Uniform { lo = 0.05 *. params.P.delta; hi = params.P.delta });
        clocks =
          (if Rng.bool rng then S.Perfect
           else S.Drifting { rho = params.P.rho; max_offset = 0.1 });
        cast;
        proposals = sched.Ch.proposals;
        events = sched.Ch.events;
        transport = cfg.transport;
        horizon = 0.0;
        session_capacity = None;
        blackout = true;
        r_slack = cfg.r_slack;
        service = None;
      }
    in
    { draft with Spec.horizon = Float.max sched.Ch.horizon (min_horizon draft) }
  end
  else begin
  (* Proposals: distinct correct Generals (so the IG initiation-spacing rules
     never refuse on our account), spread over the active window. *)
  let n_props = Rng.int rng (cfg.max_proposals + 1) in
  let generals =
    Array.to_list
      (Rng.subset rng
         ~k:(min n_props (List.length correct))
         (Array.of_list correct))
  in
  let proposals =
    List.mapi
      (fun i g ->
        {
          S.g;
          v = Printf.sprintf "%s-%d" (Rng.pick_list rng values) i;
          at = Rng.float_in_range rng ~lo:0.01 ~hi:active;
        })
      generals
  in
  (* Environment events: each disruption is a paired fault/recovery window
     inside the active period. *)
  let events = ref [] in
  if cfg.disruptions && cfg.max_disruptions > 0 then begin
    let n_disruptions = Rng.int rng (cfg.max_disruptions + 1) in
    for _ = 1 to n_disruptions do
      let at = Rng.float_in_range rng ~lo:0.01 ~hi:(0.8 *. active) in
      let until =
        Rng.float_in_range rng ~lo:at ~hi:(min active (at +. (0.5 *. active)))
      in
      match Rng.int rng 4 with
      | 0 ->
          let node = Rng.int rng n in
          events :=
            S.Recover { node; at = until } :: S.Crash { node; at } :: !events
      | 1 ->
          let p = Rng.float_in_range rng ~lo:0.05 ~hi:0.6 in
          events := S.Heal { at = until } :: S.Drop_prob { at; p } :: !events
      | 2 ->
          let shuffled = Rng.shuffle rng (Array.init n Fun.id) in
          let k = Rng.int_in_range rng ~lo:1 ~hi:(n - 1) in
          let ga = Array.to_list (Array.sub shuffled 0 k) in
          let gb = Array.to_list (Array.sub shuffled k (n - k)) in
          events :=
            S.Heal { at = until }
            :: S.Partition { at; blocked = (List.sort compare ga, List.sort compare gb) }
            :: !events
      | _ ->
          events :=
            S.Scramble
              { at; values; net_garbage = Rng.int rng 150 }
            :: !events
    done
  end;
  (* Persistent link faults, only meaningful under a transport: they start
     early in the active window and never heal, so most of the run — the
     agreements included — happens over the degraded link. *)
  if cfg.max_link_faults > 0 && cfg.transport <> None then begin
    let n_faults = Rng.int_in_range rng ~lo:1 ~hi:cfg.max_link_faults in
    for _ = 1 to n_faults do
      let at = Rng.float_in_range rng ~lo:0.01 ~hi:(0.5 *. active) in
      let p () = Rng.float_in_range rng ~lo:0.05 ~hi:0.3 in
      match Rng.int rng 3 with
      | 0 -> events := S.Loss { at; p = p () } :: !events
      | 1 -> events := S.Duplicate { at; p = p () } :: !events
      | _ ->
          events :=
            S.Reorder
              {
                at;
                prob = p ();
                extra =
                  Rng.float_in_range rng ~lo:params.P.delta
                    ~hi:(5.0 *. params.P.delta);
              }
            :: !events
    done
  end;
  let events =
    List.stable_sort (fun a b -> compare (S.event_time a) (S.event_time b)) !events
  in
  (* 30 bits: exactly representable as a JSON double, so the replay file
     round-trips the seed bit-for-bit. *)
  let seed = Rng.bits rng land 0x3FFFFFFF in
  let draft =
    {
      Spec.name = Printf.sprintf "fuzz-n%d-%d" n (seed land 0xFFFFFF);
      seed;
      n;
      f;
      delay =
        (* With [edge_delays] the menu grows the boundary-sampling model as a
           4th equally-likely entry; without it the 3-way draw is the
           historical one, bit-for-bit. *)
        (match (if cfg.edge_delays then Rng.int rng 4 else Rng.int rng 3) with
        | 0 -> D.Fixed (Rng.float_in_range rng ~lo:(0.05 *. params.P.delta) ~hi:params.P.delta)
        | 1 ->
            let lo = Rng.float_in_range rng ~lo:(0.05 *. params.P.delta) ~hi:(0.5 *. params.P.delta) in
            D.Uniform { lo; hi = Rng.float_in_range rng ~lo ~hi:params.P.delta }
        | 2 ->
            D.Bimodal
              {
                fast = Rng.float_in_range rng ~lo:(0.05 *. params.P.delta) ~hi:(0.3 *. params.P.delta);
                slow = params.P.delta;
                slow_prob = Rng.float_in_range rng ~lo:0.01 ~hi:0.3;
              }
        | _ -> edge_atoms ());
      clocks =
        (if Rng.bool rng then S.Perfect
         else
           S.Drifting
             {
               rho = Rng.float_in_range rng ~lo:0.0 ~hi:params.P.rho;
               max_offset = Rng.float_in_range rng ~lo:0.0 ~hi:0.2;
             });
      cast;
      proposals;
      events;
      transport = cfg.transport;
      horizon = 0.0;
      session_capacity = None;
      blackout = true;
      r_slack = cfg.r_slack;
      service = None;
    }
  in
  (* Overload tier: stamp a service workload. Times are drawn in units of
     the spec's *effective* constants (the transport inflates d), so arrival
     pressure and drain slack scale with the drawn link faults. *)
  let draft =
    if not cfg.service then draft
    else begin
      let p = Spec.params draft in
      let channels = Rng.int_in_range rng ~lo:4 ~hi:8 in
      let capacity = max 8 (n * channels) in
      (* Sessions linger ~40d (decision + GC grace), so [live ~= rate * 40d];
         drawing the rate as a fraction of capacity/40d sweeps the service
         from comfortable to well past the high watermark. *)
      let lifetime = 40.0 *. p.P.d in
      let rate =
        Rng.float_in_range rng ~lo:0.5 ~hi:1.5 *. float_of_int capacity /. lifetime
      in
      let arrivals =
        if Rng.bool rng then W.Poisson { rate }
        else
          W.Bursty
            {
              rate;
              burst = Rng.int_in_range rng ~lo:(capacity / 2) ~hi:capacity;
              every =
                Rng.float_in_range rng ~lo:(1.5 *. p.P.delta_agr)
                  ~hi:(3.0 *. p.P.delta_agr);
            }
      in
      let start_at = 0.01 in
      let stop_at =
        start_at
        +. Rng.float_in_range rng ~lo:(4.0 *. p.P.delta_agr)
             ~hi:(8.0 *. p.P.delta_agr)
      in
      let high = Rng.float_in_range rng ~lo:0.6 ~hi:0.9 in
      let w =
        {
          W.arrivals;
          start_at;
          stop_at;
          channels;
          queue_cap = Rng.int_in_range rng ~lo:4 ~hi:32;
          high_watermark = high;
          low_watermark = Rng.float_in_range rng ~lo:0.3 ~hi:(Float.min 0.5 high);
          retry_max = Rng.int_in_range rng ~lo:2 ~hi:4;
          retry_base =
            Rng.float_in_range rng ~lo:p.P.delta_0 ~hi:(1.5 *. p.P.delta_0);
          pulse_cycles = 0;
        }
      in
      {
        draft with
        Spec.name = Printf.sprintf "overload-n%d-%d" n (draft.Spec.seed land 0xFFFFFF);
        service = Some w;
      }
    end
  in
  { draft with Spec.horizon = min_horizon draft }
  end
