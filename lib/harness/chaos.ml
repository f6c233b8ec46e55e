(* Continuous-churn chaos schedules.

   Each episode is one disruption plus two probe agreements: the first lands
   inside the [Delta_stb] recovery-measurement window (late enough to clear
   the worst IG3 quiet period a scramble can install — Delta_reset is half of
   Delta_stb — and early enough that its completion still measures the
   episode's stabilization time), the second lands past [Delta_stb], where
   the per-interval oracle demands full Agreement/Validity/Timeliness. The
   generators are pure functions of their arguments — no RNG — so chaos
   corpora digest as stably as the calm ones. *)

module P = Ssba_core.Params

type pattern = Periodic_scramble | Crash_wave | Surge_cycle | Rejoin

let all_patterns = [ Periodic_scramble; Crash_wave; Surge_cycle; Rejoin ]

let pattern_name = function
  | Periodic_scramble -> "periodic-scramble"
  | Crash_wave -> "crash-wave"
  | Surge_cycle -> "surge"
  | Rejoin -> "rejoin"

let pattern_of_name s =
  match
    List.find_opt (fun p -> String.equal (pattern_name p) s) all_patterns
  with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "unknown chaos pattern %S (expected %s)" s
           (String.concat ", " (List.map pattern_name all_patterns)))

type schedule = {
  events : Scenario.event list;
  proposals : Scenario.proposal list;
  horizon : float;
}

let schedule ?(episodes = 3) pattern ~(params : P.t) ~correct ~byzantine =
  if correct = [] then invalid_arg "Chaos.schedule: no correct nodes";
  let nc = List.length correct in
  let nth_correct k = List.nth correct (k mod nc) in
  let stb = params.P.delta_stb in
  let agr = params.P.delta_agr in
  let d = params.P.d in
  let tag = pattern_name pattern in
  let events = ref [] in
  let proposals = ref [] in
  let cursor = ref 0.1 in
  for i = 0 to episodes - 1 do
    let t = !cursor in
    let resume =
      match pattern with
      | Periodic_scramble ->
          events :=
            Scenario.Scramble
              { at = t; values = [ Printf.sprintf "noise%d" i ]; net_garbage = 25 }
            :: !events;
          t
      | Crash_wave ->
          let victim = nth_correct i in
          events :=
            Scenario.Recover { node = victim; at = t +. (2.0 *. agr) }
            :: Scenario.Crash { node = victim; at = t }
            :: !events;
          t +. (2.0 *. agr)
      | Surge_cycle ->
          events :=
            Scenario.Delay_restore { at = t +. (2.0 *. agr) }
            :: Scenario.Delay_surge { at = t; factor = 3.0 }
            :: !events;
          t +. (2.0 *. agr)
      | Rejoin -> (
          match List.nth_opt byzantine i with
          | Some node ->
              events := Scenario.Reform { node; at = t } :: !events;
              t
          | None ->
              (* cast exhausted: keep the churn going with scrambles *)
              events :=
                Scenario.Scramble
                  {
                    at = t;
                    values = [ Printf.sprintf "noise%d" i ];
                    net_garbage = 25;
                  }
                :: !events;
              t)
    in
    (* Probe 1: inside the recovery-measurement window (completes around
       0.55 stb + Delta_agr + 8d < stb). Probe 2: past Delta_stb, fully
       entitled. Distinct Generals and values per probe. *)
    proposals :=
      {
        Scenario.g = nth_correct ((2 * i) + 1);
        v = Printf.sprintf "p%d-%s-b" i tag;
        at = resume +. stb +. (10.0 *. d);
      }
      :: {
           Scenario.g = nth_correct (2 * i);
           v = Printf.sprintf "p%d-%s-a" i tag;
           at = resume +. (0.55 *. stb);
         }
      :: !proposals;
    cursor := resume +. stb +. (3.0 *. agr)
  done;
  {
    events = List.rev !events;
    proposals = List.rev !proposals;
    horizon = !cursor;
  }
