(** The round-stretcher attack (experiment E6): with [f'] colluders (the
    faulty General plus helpers), delay every correct node's termination to
    [(2 f' + 5) Phi], capped by block U at [(2f + 1) Phi] — the adversary
    matching the paper's O(f') termination claim. Two stages (full quorum
    derivation in the implementation header):

    - IA-stretch: selective invitations plus maximally-late colluder
      support/approve top-ups push every I-accept more than 4d past its
      anchor, disabling the block-R fast path;
    - broadcaster drip: one new broadcaster per phase is made detectable
      (block Y1) without any broadcast ever being *accepted*, starving both
      block S and block T's abort condition round by round.

    The choreography runs on absolute simulator time: use (near-)perfect
    clocks and a fixed small network delay [eps]. *)

open Ssba_core.Types

type t

(** [make ~params ~colluders ~v ~t0 ~eps ()] prepares the attack;
    [colluders] (head acts as the General) must be non-empty and within the
    fault budget [f]. With [complete_round] the last colluder also performs
    one honest round-1 broadcast, so every correct node *decides* the
    Byzantine value through block S at round 1 (still unanimously) instead
    of aborting. *)
val make :
  ?complete_round:bool ->
  params:Ssba_core.Params.t ->
  colluders:node_id list ->
  v:value ->
  t0:float ->
  eps:float ->
  unit ->
  t

(** The whole choreography as a scenario cast: one [Catalog.Scripted] entry
    per colluder, holding its absolute-time sends in time order. *)
val cast : t -> (node_id * Catalog.t) list

(** The phase index [(min (2 f' + 5) (2f + 1))] at which every correct node
    is expected to abort — for assertions and experiment tables. *)
val expected_abort_phase : t -> int

(** In the [complete_round] variant, the S(1) deadline phase (3). *)
val expected_decide_phase : t -> int
