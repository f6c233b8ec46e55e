(** Continuous-churn chaos schedules.

    Deterministic generators for the event/proposal schedules the recovery
    oracle needs: a run is carved into episodes, each opening with one
    disruption and closing with two probe agreements — one {e before} the
    [Delta_stb] deadline (measuring the actual stabilization time) and one
    after it (where §6.1 entitles full Agreement/Validity/Timeliness). The
    schedules contain no randomness: given the same arguments they are the
    same lists, so replay files and corpus digests stay byte-stable. *)

open Ssba_core.Types

type pattern =
  | Periodic_scramble  (** a transient-fault scramble every episode *)
  | Crash_wave
      (** crash one correct node (rotating) per episode, recover it
          [2 Delta_agr] later *)
  | Surge_cycle
      (** scale delays to 3x [delta] (violating §2 Def. 2) per episode,
          restore [2 Delta_agr] later *)
  | Rejoin
      (** reform one Byzantine node per episode (falling back to scrambles
          once the Byzantine cast is exhausted) *)

val all_patterns : pattern list
val pattern_name : pattern -> string

(** Inverse of {!pattern_name} ([Error] lists the valid names). *)
val pattern_of_name : string -> (pattern, string) result

type schedule = {
  events : Scenario.event list;  (** time-sorted *)
  proposals : Scenario.proposal list;
  horizon : float;
}

(** [schedule pattern ~params ~correct ~byzantine] builds [episodes]
    (default 3) churn episodes starting at time 0.1. Each
    episode fires its disruption, then probes at [resume + 0.55 Delta_stb]
    (past the worst [Delta_reset] quiet period a scramble can install, and
    completing within the [Delta_stb] recovery-measurement window) and
    [resume + Delta_stb + 10d] (inside the entitled region of the coherent
    interval), where [resume] is when coherence re-establishes (the
    disruption time, or the recover/restore time for crash waves and
    surges). Probe Generals rotate over [correct]; probe values are distinct
    throughout, keeping [IG2] happy. *)
val schedule :
  ?episodes:int ->
  pattern ->
  params:Ssba_core.Params.t ->
  correct:node_id list ->
  byzantine:node_id list ->
  schedule
