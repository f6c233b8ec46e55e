(* Campaign driver.

   Iteration addressing uses a splitmix-style mix of (seed, i) so scenario i
   can be rebuilt without generating scenarios 0..i-1; the whole campaign
   digest is a hash over the per-run result digests in order, which is what
   the determinism acceptance check compares. *)

module Rng = Ssba_sim.Rng

type config = {
  seed : int;
  runs : int;
  gen : Gen.config;
  oracle : Oracle.config;
  shrink : bool;
  max_shrink_attempts : int;
}

let default_config =
  {
    seed = 1;
    runs = 100;
    gen = Gen.default_config;
    oracle = Oracle.default_config;
    shrink = true;
    max_shrink_attempts = 400;
  }

type failure_case = {
  index : int;
  spec : Spec.t;
  report : Oracle.report;
  shrunk : (Spec.t * Oracle.report * Shrink.stats) option;
}

type summary = {
  failed : failure_case list;
  corpus_digest : string;
}

(* splitmix64's golden-gamma mix keeps nearby (seed, i) pairs statistically
   far apart; wrap-around multiplication is deterministic in OCaml. *)
let rng_of_iteration ~seed i =
  Rng.create (seed lxor ((i + 1) * 0x9E3779B97F4A7C1))

let spec_of_iteration ~seed ~gen i = Gen.spec (rng_of_iteration ~seed i) gen

(* The campaign digest folds the per-run digests IN ITERATION ORDER — the
   fold must be order-dependent, or a parallel scheduler that completed
   iterations out of order would go unnoticed. Byte-compatible with the
   historical serial implementation (digest ^ "\n" per run, MD5 over the
   concatenation), so every pinned corpus digest stays put. *)
let digest_of_digests arr =
  let buf = Buffer.create ((Array.length arr * 33) + 16) in
  Array.iter
    (fun d ->
      Buffer.add_string buf d;
      Buffer.add_char buf '\n')
    arr;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* One deterministic engine per domain: workers pull the next iteration
   index from an atomic counter, run it in isolation (every scenario builds
   its own engine/RNG from (seed, i) alone), and write the result digest
   into slot [i]; with one job the calling domain is the only worker. The
   index-ordered fold over the slot array gives the same digest whatever
   order the slots were filled in. Failures are shrunk after the loop, in
   iteration order (shrinking is a pure function of the failing spec), so
   the summary does not depend on [jobs]. *)
let run ?progress ?(jobs = 1) config =
  if jobs < 1 then invalid_arg "Campaign.run: jobs must be >= 1";
  if config.runs < 0 then invalid_arg "Campaign.run: runs must be >= 0";
  let runs = config.runs in
  let digests = Array.make runs "" in
  let next = Atomic.make 0 in
  let failures = Atomic.make [] in
  let progress_mutex = Mutex.create () in
  let worker () =
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add next 1 in
      if i >= runs then continue := false
      else begin
        let spec = spec_of_iteration ~seed:config.seed ~gen:config.gen i in
        let _, report = Oracle.run ~config:config.oracle spec in
        digests.(i) <- report.Oracle.digest;
        (match progress with
        | Some f ->
            Mutex.lock progress_mutex;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock progress_mutex)
              (fun () -> f i spec report)
        | None -> ());
        if Oracle.failed report then begin
          let rec push () =
            let cur = Atomic.get failures in
            if
              not
                (Atomic.compare_and_set failures cur ((i, spec, report) :: cur))
            then push ()
          in
          push ()
        end
      end
    done
  in
  let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join helpers;
  let failed =
    List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) (Atomic.get failures)
    |> List.map (fun (index, spec, report) ->
           let shrunk =
             if config.shrink then
               Some
                 (Shrink.minimize ~config:config.oracle
                    ~max_attempts:config.max_shrink_attempts spec report)
             else None
           in
           { index; spec; report; shrunk })
  in
  { failed; corpus_digest = digest_of_digests digests }
