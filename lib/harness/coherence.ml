(* Coherence timeline.

   Derives, from a scenario's event schedule and cast alone, the maximal
   intervals of real time during which §2's coherence assumptions hold. The
   walk maintains the incoherence state the events install — crashed
   correct/reformed nodes, transient drop, partition, delay surge, unmasked
   persistent link faults — and opens/closes intervals on every transition.
   Scramble and an effective Reform are point disruptions: the system is
   coherent before and after, but all state is suspect, so the current
   interval closes and a fresh one (with [after_disruption] set) opens at the
   same instant. *)

open Ssba_core.Types

type interval = {
  t_start : float;
  t_end : float;
  after_disruption : bool;
  correct : node_id list;
}

let pp_interval ppf i =
  Fmt.pf ppf "[%.3f, %.3f)%s correct={%s}" i.t_start i.t_end
    (if i.after_disruption then " after-disruption" else "")
    (String.concat "," (List.map string_of_int i.correct))

let intervals (sc : Scenario.t) =
  let masked = sc.Scenario.transport <> None in
  let base_correct = Scenario.correct_ids sc in
  let events =
    List.stable_sort
      (fun a b -> compare (Scenario.event_time a) (Scenario.event_time b))
      sc.Scenario.events
  in
  (* Mutable incoherence state, updated event by event. *)
  let crashed = Hashtbl.create 8 in
  let reformed = Hashtbl.create 8 in
  let tdrop = ref 0.0 in
  let partitioned = ref false in
  let surge = ref 1.0 in
  let loss = ref 0.0 in
  let dup = ref 0.0 in
  let reorder = ref 0.0 in
  let is_correct id = List.mem id base_correct || Hashtbl.mem reformed id in
  let coherent () =
    (not (Hashtbl.fold (fun id () acc -> acc || is_correct id) crashed false))
    && !tdrop = 0.0 && (not !partitioned) && !surge <= 1.0
    && (masked || (!loss = 0.0 && !dup = 0.0 && !reorder = 0.0))
  in
  let correct_now () =
    List.sort_uniq compare
      (base_correct @ Hashtbl.fold (fun id () acc -> id :: acc) reformed [])
  in
  (* [apply] returns true when the event is a point disruption: state was and
     stays coherent, but the interval must split anyway. *)
  let apply = function
    | Scenario.Crash { node; _ } ->
        Hashtbl.replace crashed node ();
        false
    | Scenario.Recover { node; _ } ->
        Hashtbl.remove crashed node;
        false
    | Scenario.Scramble _ -> true
    | Scenario.Reform { node; _ } ->
        let effective =
          List.mem_assoc node sc.Scenario.cast && not (Hashtbl.mem reformed node)
        in
        if effective then Hashtbl.replace reformed node ();
        effective
    | Scenario.Drop_prob { p; _ } ->
        tdrop := p;
        false
    | Scenario.Partition _ ->
        partitioned := true;
        false
    | Scenario.Heal _ ->
        tdrop := 0.0;
        partitioned := false;
        false
    | Scenario.Heal_partition _ ->
        partitioned := false;
        false
    | Scenario.Heal_drop _ ->
        tdrop := 0.0;
        false
    | Scenario.Delay_surge { factor; _ } ->
        surge := factor;
        false
    | Scenario.Delay_restore _ ->
        surge := 1.0;
        false
    | Scenario.Loss { p; _ } ->
        loss := p;
        false
    | Scenario.Duplicate { p; _ } ->
        dup := p;
        false
    | Scenario.Reorder { prob; _ } ->
        reorder := prob;
        false
  in
  let out = ref [] in
  (* Some (start, after_disruption) while coherent. *)
  let cur = ref (Some (0.0, false)) in
  let close ~correct t =
    match !cur with
    | Some (start, after) when t > start ->
        out :=
          { t_start = start; t_end = t; after_disruption = after; correct }
          :: !out;
        cur := None
    | Some _ -> cur := None (* zero-length: drop *)
    | None -> ()
  in
  List.iter
    (fun e ->
      let t = Scenario.event_time e in
      let pre = coherent () in
      (* The interval that closes here ran under the correct set in force
         before the event — a Reform grows the set only from its own time. *)
      let correct = correct_now () in
      let point = apply e in
      let post = coherent () in
      match (pre, post) with
      | true, true ->
          if point then begin
            close ~correct t;
            cur := Some (t, true)
          end
      | true, false -> close ~correct t
      | false, true -> cur := Some (t, true)
      | false, false -> ())
    events;
  close ~correct:(correct_now ()) sc.Scenario.horizon;
  List.rev !out

let interval_at ivs t =
  List.find_opt (fun i -> i.t_start <= t && t < i.t_end) ivs
