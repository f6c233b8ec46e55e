(* A Byzantine General tries to split the correct nodes.

   Three attacks from the adversary library, run back to back on 10 nodes
   (f = 3 tolerated):

   - two-faced: the General sends value "attack" to half the nodes and
     "retreat" to the other half, then pushes support/approve/ready for both.
     The Uniqueness property [IA-4] of Initiator-Accept guarantees correct
     nodes never I-accept different values for anchors this close — here
     neither value reaches the n - f support quorum, so nobody agrees to
     anything (a legal outcome for a faulty General).

   - partial: the General initiates towards only n - f nodes. The Relay
     property [IA-3] drags every other correct node to the same value — all
     correct nodes decide, including the ones that never saw the initiation.

   - staggered: the General spreads its initiation over many d. The block-K
     freshness guards stop late nodes from supporting, so the support burst
     stays tight or nothing happens at all.

     dune exec examples/byzantine_general.exe *)

module H = Ssba_harness
module Core = Ssba_core
module C = Ssba_adversary.Catalog

let show title (res : H.Runner.result) =
  Fmt.pr "@.== %s ==@." title;
  let episodes = H.Metrics.episodes res in
  if episodes = [] then
    Fmt.pr "  no correct node returned anything (no agreement was initiated)@.";
  List.iter
    (fun (e : H.Metrics.episode) ->
      match H.Checks.agreement ~correct:res.H.Runner.correct e with
      | H.Checks.Unanimous v ->
          Fmt.pr "  all %d correct nodes decided %S@."
            (List.length e.H.Metrics.returns) v
      | H.Checks.All_aborted ->
          Fmt.pr "  %d correct node(s) aborted (returned bot)@."
            (List.length e.H.Metrics.returns)
      | H.Checks.All_silent -> ()
      | H.Checks.Violated why -> Fmt.pr "  AGREEMENT VIOLATED: %s@." why)
    episodes;
  match H.Checks.pairwise_agreement res with
  | [] -> Fmt.pr "  pairwise agreement: holds@."
  | vs -> List.iter (fun v -> Fmt.pr "  VIOLATION: %s@." v) vs

let () =
  let n = 10 in
  let params = Core.Params.default n in
  let f = params.Core.Params.f in
  let run name cast =
    let sc =
      H.Scenario.default ~name ~seed:7 ~cast
        ~horizon:(4.0 *. params.Core.Params.delta_agr)
        params
    in
    show name (H.Runner.run sc)
  in
  run "two-faced General"
    [ (0, C.Two_faced_general { v1 = "attack"; v2 = "retreat"; at = 0.02 }) ];
  run "partial General (initiates towards n - f nodes only)"
    [
      ( 0,
        C.Partial_general
          { v = "attack"; at = 0.02; targets = List.init (n - f) (fun i -> i + 1) } );
    ];
  run "staggered General (spreads initiation over 3d steps)"
    [ (0, C.Stagger_general { v = "attack"; at = 0.02; gap_d = 3.0 }) ]
