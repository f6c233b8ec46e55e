(** Fuzzing campaigns: generate–run–judge loops with deterministic
    addressing and a corpus digest.

    Scenario [i] of a campaign with seed [s] is
    [Gen.spec (rng_of_iteration ~seed:s i) gen], independent of every other
    iteration — any failure reproduces from [(seed, i)] alone, or from the
    saved replay file. A campaign is a pure function of its config: two
    runs produce the same [corpus_digest]. *)

type config = {
  seed : int;
  runs : int;
  gen : Gen.config;
  oracle : Oracle.config;
  shrink : bool;  (** minimize failures before reporting *)
  max_shrink_attempts : int;
}

val default_config : config

type failure_case = {
  index : int;  (** iteration number within the campaign *)
  spec : Spec.t;
  report : Oracle.report;
  shrunk : (Spec.t * Oracle.report * Shrink.stats) option;
}

(** A campaign runs every one of [config.runs] scenarios. *)
type summary = {
  failed : failure_case list;  (** chronological *)
  corpus_digest : string;
      (** hex digest over every run's result digest *)
}

(** The RNG that generates iteration [i]. *)
val rng_of_iteration : seed:int -> int -> Ssba_sim.Rng.t

(** Rebuild scenario [i] of campaign [seed] (the replay-from-coordinates
    path). *)
val spec_of_iteration : seed:int -> gen:Gen.config -> int -> Spec.t

(** The campaign digest: MD5 over the per-run result digests folded in
    iteration order ([digest ^ "\n"] each). The fold is deliberately
    order-DEPENDENT — it is the observable that pins a parallel campaign to
    its serial schedule; an order-independent fold would hide a scheduler
    that permuted iterations. Exposed so tests can probe exactly that
    sensitivity. *)
val digest_of_digests : string array -> string

(** Run a campaign. [progress] is called after every scenario, under a
    mutex. [jobs] (default 1) runs scenarios on that many domains — one
    deterministic engine per domain, scenarios pulled from a shared
    counter; every iteration is a pure function of [(seed, i)], and the
    digest folds per-iteration results in index order, so the summary
    (digest, failure set, shrunk reproductions) is the same
    for every [jobs]. Raises [Invalid_argument] when [jobs < 1] or
    [config.runs < 0]. *)
val run :
  ?progress:(int -> Spec.t -> Oracle.report -> unit) ->
  ?jobs:int ->
  config ->
  summary
