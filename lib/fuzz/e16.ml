(* E16 — the multi-core campaign engine.

   One table: a fixed churn campaign at increasing --jobs counts, with its
   wall-clock speedup and the corpus digest asserted byte-identical at every
   job count, which is the whole point: parallelism buys throughput and
   changes no observable result. The single-core scale curve it builds on
   is E11's table.

   Wall-clock honesty: the speedup column measures THIS host. On a 1-core
   container the curve sits at ~1.0x (domains time-share; the parallel runs
   pay only domain-spawn overhead), and that is the expected, correct
   reading — the determinism claim is what the table pins; the throughput
   claim needs real cores. *)

let run () =
  let runs = 60 in
  Fmt.pr "E16 — Multi-core campaign engine@.@.";
  Fmt.pr
    "Campaign speedup: %d-scenario churn batch (seed 2027, shrink off), \
     host offers %d core(s)@."
    runs
    (Domain.recommended_domain_count ());
  let config =
    {
      Campaign.default_config with
      Campaign.seed = 2027;
      runs;
      gen = Gen.chaos_config;
      shrink = false;
    }
  in
  let serial_wall = ref 0.0 in
  let serial_digest = ref "" in
  Fmt.pr "%-6s %9s %9s  %s@." "jobs" "wall(s)" "speedup" "corpus digest";
  List.iter
    (fun jobs ->
      let t0 = Unix.gettimeofday () in
      let s = Campaign.run ~jobs config in
      let wall = Unix.gettimeofday () -. t0 in
      if jobs = 1 then begin
        serial_wall := wall;
        serial_digest := s.Campaign.corpus_digest
      end
      else if not (String.equal s.Campaign.corpus_digest !serial_digest) then
        Fmt.failwith "E16: corpus digest diverged at --jobs %d" jobs;
      Fmt.pr "%-6d %9.2f %8.2fx  %s@." jobs wall (!serial_wall /. wall)
        s.Campaign.corpus_digest)
    [ 1; 2; 4 ];
  Fmt.pr
    "corpus digest byte-identical at every job count (asserted above);@.";
  Fmt.pr
    "speedup saturates at the host's core count — a flat ~1.00x column \
     means a single-core host, not a determinism failure.@."
