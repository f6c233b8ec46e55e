(* perfbench: one command, four workloads, every metric by name and unit.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--manifest BENCHMARK.json] [--spans FILE]

   --trace 0 sets up [setups] times (setup_s is their median), then repeats
   untraced rounds of API calls for S seconds and prints the end-to-end
   metrics. Every round is the same work and runs between two runs of the
   reference kernel (see reference.ml); the timing metrics are stated in
   units of those runs.
   --trace 1 sets up once, runs untraced rounds for S/2 seconds and traced
   ops for S/2 more, checks that the traced worlds reproduce the untraced
   outputs exactly (the mirror check), and prints the per-layer metrics;
   [--spans] writes the coarse spans as JSON lines. The last line of
   standard output is one JSON object: correct, attempted, failed, metrics.
   Any failed output check makes [correct] false; a failed mirror check
   prints no result at all and exits 1. *)

open Perfbench
module J = Ssba_sim.Json

let setups = 3

let now_s () = float_of_int (Clock.now_ns ()) /. 1e9
let die code fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit code) fmt

type phase = {
  rounds : (Workloads.round * float) list;
      (** each round with its reference: the mean wall ms of the reference
          kernel runs just before and just after it *)
  elapsed : float;
  words : float;  (** minor words the rounds allocated *)
}

(* Untraced rounds until [seconds] have passed (at least one round), each
   between two runs of the reference kernel. *)
let untraced (inst : Workloads.instance) ~seconds =
  let t0 = now_s () in
  let words = ref 0.0 in
  let rec loop before rounds =
    let w0 = Gc.minor_words () in
    let r = inst.Workloads.round () in
    words := !words +. (Gc.minor_words () -. w0);
    let after = Reference.time_ms () in
    let rounds = (r, (before +. after) /. 2.0) :: rounds in
    if now_s () -. t0 < seconds then loop after rounds
    else { rounds = List.rev rounds; elapsed = now_s () -. t0; words = !words }
  in
  loop (Reference.time_ms ()) []

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let attempted ph = sum (fun ((r : Workloads.round), _) -> r.Workloads.attempted) ph.rounds
let failed ph = sum (fun ((r : Workloads.round), _) -> r.Workloads.failed) ph.rounds
let problems ph = List.concat_map (fun ((r : Workloads.round), _) -> r.Workloads.problems) ph.rounds
let all_calls ph =
  Array.concat (List.map (fun ((r : Workloads.round), _) -> r.Workloads.calls_ms) ph.rounds)
let total = Array.fold_left ( +. ) 0.0

(* Completed ops per reference-kernel run, per round, and each call's wall
   time in reference-kernel runs. A slow spell of the shared host slows a
   round and the kernel runs beside it alike, so these ratios hold still
   where wall times drift. *)
let ops_per_ref ph =
  Array.of_list
    (List.map
       (fun ((r : Workloads.round), ref_ms) ->
         float_of_int (r.Workloads.attempted - r.Workloads.failed)
         /. (total r.Workloads.calls_ms /. ref_ms))
       ph.rounds)

let calls_in_refs ph =
  Array.concat
    (List.map
       (fun ((r : Workloads.round), ref_ms) ->
         Array.map (fun ms -> ms /. ref_ms) r.Workloads.calls_ms)
       ph.rounds)

let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed (declared : Names.metric list) values =
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun (m : Names.metric) -> m.Names.name = n) declared) then
        die 3 "internal: undeclared metric %s" n)
    values;
  let metric (m : Names.metric) =
    match List.assoc_opt m.Names.name values with
    | Some v when Float.is_finite v ->
        Printf.printf "  %-28s %s %s\n" m.Names.name (number v) m.Names.unit_;
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Names.name (number v) m.Names.unit_
    | Some _ -> die 3 "internal: metric %s is not a finite number" m.Names.name
    | None -> die 3 "internal: metric %s was not measured" m.Names.name
  in
  let fields = List.map metric declared in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0.0 and trace = ref (-1) in
  let manifest = ref "BENCHMARK.json" and spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured wall seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--manifest", Arg.Set_string manifest, "FILE benchmark manifest to check against");
      ("--spans", Arg.Set_string spans_out, "FILE write coarse spans (--trace 1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  (match Manifest.check (Manifest.load !manifest) with
  | [] -> ()
  | errors -> die 2 "invalid %s:\n  %s" !manifest (String.concat "\n  " errors)
  | exception (Sys_error e | J.Parse_error e) -> die 2 "cannot read manifest: %s" e);
  let make =
    match Workloads.find !workload with
    | Some make -> make
    | None -> die 2 "unknown workload %S (%s)" !workload (String.concat ", " Names.workloads)
  in
  if !seconds <= 0.0 then die 2 "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die 2 "--trace must be 0 or 1";
  Printf.printf "# perfbench %s seed=%d seconds=%g trace=%d profile=%s ocaml=%s nproc=%d\n%!"
    !workload !seed !seconds !trace Build_info.profile Sys.ocaml_version
    (Domain.recommended_domain_count ());
  let prepare () =
    let t0 = now_s () in
    let sp = Span.create () in
    let inst = make sp ~seed:!seed in
    (now_s () -. t0, sp, inst)
  in
  if !trace = 0 then begin
    let runs = List.init setups (fun _ -> prepare ()) in
    let setup_s = Stats.median (Array.of_list (List.map (fun (t, _, _) -> t) runs)) in
    let _, _, inst = List.nth runs (setups - 1) in
    (* before the reference kernel first runs *)
    let heap_mb =
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
    in
    let ph = untraced inst ~seconds:!seconds in
    let attempted = attempted ph and failed = failed ph and problems = problems ph in
    let calls = all_calls ph in
    let refs = Array.of_list (List.map snd ph.rounds) in
    let ms = Stats.summarize calls in
    let p50_d, p99_d = inst.Workloads.decide_d in
    List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p)) problems;
    Printf.printf
      "  rounds: %d over %.3f s; reference kernel ms per round p50 %.3f (min %.3f, max %.3f)\n"
      (List.length ph.rounds) ph.elapsed (Stats.median refs) (Stats.percentile 0.0 refs)
      (Stats.percentile 1.0 refs);
    Printf.printf
      "  calls timed: %d, call ms min %.3f p25 %.3f p50 %.3f p75 %.3f; call_ms_p95: %s; \
       failed_ratio: %g (%d/%d)\n"
      ms.Stats.samples
      (Stats.percentile 0.0 calls) (Stats.percentile 0.25 calls) ms.Stats.p50
      (Stats.percentile 0.75 calls)
      (match ms.Stats.p95 with
      | Some p -> Printf.sprintf "%.3f ms" p
      | None -> Printf.sprintf "n/a (needs %d samples beyond it)" Stats.min_beyond)
      (if attempted = 0 then 0.0 else float_of_int failed /. float_of_int attempted)
      failed attempted;
    print_result
      ~correct:(problems = [] && failed = 0 && attempted > 0)
      ~attempted ~failed Names.end_to_end
      [
        ("ops_per_ref", Stats.median (ops_per_ref ph));
        ("call_ref_p50", Stats.median (calls_in_refs ph));
        ("minor_words_per_op", ph.words /. float_of_int ms.Stats.samples);
        ("heap_peak_mb", heap_mb);
        ("setup_s", setup_s);
        ("decide_p50_d", p50_d);
        ("decide_p99_d", p99_d);
      ]
  end
  else begin
    let _, sp, inst = prepare () in
    let plain = untraced inst ~seconds:(!seconds /. 2.0) in
    let op = Span.acc ~keep:true sp "op" in
    let g0 = Gc.quick_stat () in
    let t0 = now_s () in
    let rec loop ms mirror =
      Span.start sp op;
      let c0 = now_s () in
      let p = inst.Workloads.traced_call () in
      let ms = ((now_s () -. c0) *. 1000.0) :: ms in
      Span.stop sp;
      Span.end_op sp;
      let mirror = mirror @ p in
      let again =
        match inst.Workloads.traced_target () with
        | Some k -> Span.ops sp < k
        | None -> now_s () -. t0 < !seconds /. 2.0
      in
      if again then loop ms mirror else (Array.of_list ms, mirror)
    in
    let traced_ms, mirror = loop [] [] in
    let g1 = Gc.quick_stat () in
    if mirror <> [] then
      die 1 "mirror check failed, no per-layer numbers:\n  %s" (String.concat "\n  " mirror);
    let ops = Span.ops sp in
    let per x = x /. float_of_int ops in
    let attempted = attempted plain and failed = failed plain and problems = problems plain in
    List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p)) problems;
    if !spans_out <> "" then begin
      let oc = open_out !spans_out in
      List.iter
        (fun r ->
          output_string oc (J.to_string (Span.record_to_json r));
          output_char oc '\n')
        (Span.records sp);
      close_out oc
    end;
    let measured =
      inst.Workloads.layers ~ops
      @ [
          ("gc.minor_collections_per_op", per (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections)));
          ("gc.major_collections_per_op", per (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)));
          ("gc.promoted_words_per_op", per (g1.Gc.promoted_words -. g0.Gc.promoted_words));
          ( "trace.overhead_ratio",
            Stats.median traced_ms /. Stats.median (all_calls plain) );
        ]
    in
    Printf.printf "  traced ops: %d; untraced calls: %d\n" ops (Array.length (all_calls plain));
    print_result
      ~correct:(problems = [] && failed = 0 && attempted > 0)
      ~attempted ~failed Names.per_layer
      (* layers this workload does not reach read 0 *)
      (measured
      @ List.filter_map
          (fun (m : Names.metric) ->
            if List.mem_assoc m.Names.name measured then None else Some (m.Names.name, 0.0))
          Names.per_layer)
  end
