(* Greedy shrinking.

   Classic delta-debugging specialized to the spec shape. "Preserving the
   failure" means: the candidate's oracle report contains a failure whose
   oracle name appeared in the original report — the detail string may
   change (times and node ids move as the scenario shrinks), the property
   class may not. *)

module S = Ssba_harness.Scenario
module C = Ssba_adversary.Catalog
module P = Ssba_core.Params
module W = Ssba_service.Workload
module D = Ssba_net.Delay

type stats = { attempts : int; accepted : int }

let drop_nth l i = List.filteri (fun j _ -> j <> i) l

(* Candidate simplifications, cheapest-win first: structural deletions, then
   substitutions, then model flattening, then horizon tightening. *)
let candidates spec =
  let open Spec in
  let events =
    List.mapi (fun i _ -> { spec with events = drop_nth spec.events i }) spec.events
  in
  let proposals =
    List.mapi
      (fun i _ -> { spec with proposals = drop_nth spec.proposals i })
      spec.proposals
  in
  let cast_drops =
    List.mapi (fun i _ -> { spec with cast = drop_nth spec.cast i }) spec.cast
  in
  let cast_simpler =
    List.concat
      (List.mapi
         (fun i (id, c) ->
           List.map
             (fun c' ->
               {
                 spec with
                 cast = List.mapi (fun j e -> if j = i then (id, c') else e) spec.cast;
               })
             (C.simplify c))
         spec.cast)
  in
  (* Retarget proposals at the smallest correct id, freeing high node ids for
     the node-count reduction below. *)
  let byz = List.map fst spec.cast in
  let smallest_correct =
    List.find_opt (fun id -> not (List.mem id byz)) (List.init spec.n Fun.id)
  in
  let retargets =
    match smallest_correct with
    | None -> []
    | Some lo ->
        List.concat
          (List.mapi
             (fun i (p : S.proposal) ->
               if
                 p.S.g <> lo
                 && not
                      (List.exists
                         (fun (q : S.proposal) -> q.S.g = lo)
                         spec.proposals)
               then
                 [
                   {
                     spec with
                     proposals =
                       List.mapi
                         (fun j q -> if j = i then { p with S.g = lo } else q)
                         spec.proposals;
                   };
                 ]
               else [])
             spec.proposals)
  in
  (* Node-count reduction: drop the top node when nothing references it,
     both one at a time and straight to the n=4 floor. *)
  let shrink_to n' =
    if n' >= 4 && n' < spec.n && Spec.max_referenced_id spec < n' then
      [ { spec with n = n'; f = min spec.f (P.max_faults n') } ]
    else []
  in
  let nodes = shrink_to 4 @ shrink_to (spec.n - 1) in
  let delay =
    let fixed x = [ { spec with delay = D.Fixed x } ] in
    match spec.delay with
    | D.Fixed _ | D.Scaled _ -> []
    | D.Uniform { lo; hi } | D.Bimodal { fast = lo; slow = hi; _ } -> fixed (0.5 *. (lo +. hi))
    (* boundary atoms flatten to the largest one — the boundary-dividing
       delay is usually the one doing the damage *)
    | D.Edge { atoms } -> fixed (List.fold_left Float.max 0.0 atoms)
    (* a scripted schedule collapses to its default delay *)
    | D.Scripted { default; _ } -> fixed default
  in
  let clocks =
    match spec.clocks with
    | S.Perfect -> []
    | S.Drifting _ -> [ { spec with clocks = S.Perfect } ]
  in
  (* Strip the transport: only survives when the failure wasn't about the
     lossy-link machinery (the oracle reclassifies the spec), but when it
     does survive, the repro is much simpler. *)
  let transport =
    match spec.transport with
    | None -> []
    (* Service workload times are drawn at the transport-inflated d: dropping
       the transport alone deflates d by orders of magnitude under the same
       multi-thousand-d workload windows, and the candidate run (per-d ticks
       over the old horizon) explodes. Drop the service first; the transport
       becomes strippable on the next fixpoint round. *)
    | Some _ when spec.service <> None -> []
    | Some _ -> [ { spec with transport = None } ]
  in
  (* Reset a non-default gate variant: survives exactly when the failure
     isn't about the legacy/experimental gate, so minimized counterexamples
     don't carry a gratuitous [r_slack] override. *)
  let r_slack =
    if spec.r_slack = P.default_r_slack then []
    else [ { spec with r_slack = P.default_r_slack } ]
  in
  (* Service-spec reductions, cheapest-win first: drop the whole workload
     (survives exactly when the failure isn't about the service machinery),
     flatten bursty arrivals to the plain Poisson base, strip the pulse
     layer, and halve the arrival window. *)
  let service =
    match spec.service with
    | None -> []
    | Some w ->
        [ { spec with service = None } ]
        @ (match w.W.arrivals with
          | W.Bursty { rate; _ } ->
              [
                {
                  spec with
                  service = Some { w with W.arrivals = W.Poisson { rate } };
                };
              ]
          | W.Poisson _ -> [])
        @ (if w.W.pulse_cycles > 0 then
             [ { spec with service = Some { w with W.pulse_cycles = 0 } } ]
           else [])
        @
        let half = w.W.start_at +. (0.5 *. (w.W.stop_at -. w.W.start_at)) in
        if half < w.W.stop_at *. 0.99 then
          [ { spec with service = Some { w with W.stop_at = half } } ]
        else []
  in
  let horizon =
    let h = Gen.min_horizon spec in
    if h < spec.horizon *. 0.99 then [ { spec with horizon = h } ] else []
  in
  events @ proposals @ cast_drops @ cast_simpler @ retargets @ nodes @ delay
  @ clocks @ transport @ r_slack @ service @ horizon

let minimize ?config ?(max_attempts = 400) spec (report : Oracle.report) =
  let original_oracles =
    List.sort_uniq compare
      (List.map (fun (f : Oracle.failure) -> f.Oracle.oracle) report.Oracle.failures)
  in
  let preserves (r : Oracle.report) =
    List.exists
      (fun (f : Oracle.failure) -> List.mem f.Oracle.oracle original_oracles)
      r.Oracle.failures
  in
  let attempts = ref 0 and accepted = ref 0 in
  let rec fixpoint spec report =
    let step =
      List.find_map
        (fun cand ->
          if !attempts >= max_attempts then None
          else begin
            incr attempts;
            match Spec.validate cand with
            | Error _ -> None
            | Ok () ->
                let _, r = Oracle.run ?config cand in
                if preserves r then Some (cand, r) else None
          end)
        (candidates spec)
    in
    match step with
    | Some (cand, r) when !attempts < max_attempts ->
        incr accepted;
        fixpoint cand r
    | Some (cand, r) ->
        incr accepted;
        (cand, r)
    | None -> (spec, report)
  in
  let spec, report = fixpoint spec report in
  (spec, report, { attempts = !attempts; accepted = !accepted })
