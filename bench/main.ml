(* The engine gate: the E11 scale sweep (one correct-General agreement per
   n, EXPERIMENTS.md E11) against the committed BENCH_engine.json.

     bench/main.exe --engine-smoke   reduced sweep, gated; writes nothing
     bench/main.exe --engine-json    full sweep, re-records BENCH_engine.json

   Both run from the repository root, in the release profile: the committed
   baseline is release-recorded, and dune's dev profile compiles -opaque,
   which kills cross-module inlining and boxes every cross-module float
   return, so dev runs read ~25% low. perfbench/ is the repository's
   benchmark; this gate stays until perfbench can sweep n. *)

module H = Ssba_harness
module J = Ssba_sim.Json

let baseline_path = "BENCH_engine.json"

(* [pre_pr_baseline] records the n=25 throughput measured before the
   hot-path overhaul, and [pre_batching_baseline] the n=61 throughput before
   broadcast fan-out batching and the pooled delivery arena, so the file
   documents both speedups it gates. *)
let engine_rows_json rows =
  let row (r : H.Experiments.scale_row) =
    J.Obj
      [
        ("n", J.Num (float_of_int r.H.Experiments.sr_n));
        ("events", J.Num (float_of_int r.H.Experiments.sr_events));
        ("wall_ms", J.Num r.H.Experiments.sr_wall_ms);
        ("events_per_sec", J.Num r.H.Experiments.sr_events_per_sec);
        ("wall_ms_per_sim_s", J.Num r.H.Experiments.sr_wall_ms_per_sim_s);
        ("decided", J.Bool r.H.Experiments.sr_decided);
      ]
  in
  J.Obj
    [
      ( "engine_bench",
        J.Obj
          [
            ( "workload",
              J.Str
                "correct-General agreement, seed 111, horizon t0 + 2*delta_agr"
            );
            ( "pre_pr_baseline",
              J.Obj [ ("n", J.Num 25.0); ("events_per_sec", J.Num 308924.0) ] );
            ( "pre_batching_baseline",
              J.Obj [ ("n", J.Num 61.0); ("events_per_sec", J.Num 344144.0) ] );
            ("rows", J.Arr (List.map row rows));
          ] );
    ]

(* The full sweep, best of 25 per row in one process (warm heap), the
   methodology the committed baseline was taken with. *)
let record () =
  let rows = H.Experiments.e11_scale_rows ~repeats:25 () in
  match J.write_file baseline_path (J.to_string (engine_rows_json rows) ^ "\n") with
  | Ok () -> Printf.printf "engine benchmark written to %s\n%!" baseline_path
  | Error e ->
      Printf.eprintf "cannot write %s: %s\n" baseline_path e;
      exit 2

(* Baseline rows as (n, events_per_sec). *)
let read_baseline () =
  let ( let* ) = Option.bind in
  let* raw =
    try Some (In_channel.with_open_bin baseline_path In_channel.input_all)
    with Sys_error _ -> None
  in
  let* root = try Some (J.of_string raw) with J.Parse_error _ -> None in
  let* bench = J.member "engine_bench" root in
  match J.member "rows" bench with
  | Some (J.Arr rs) ->
      Some
        (List.filter_map
           (fun r ->
             let* n = Option.bind (J.member "n" r) J.to_int_opt in
             let* eps = Option.bind (J.member "events_per_sec" r) J.to_float_opt in
             Some (n, eps))
           rs)
  | _ -> None

(* Fails (exit 1) on an unreadable baseline or a >3x events/sec drop at
   some shared n: loose enough to absorb shared-runner noise, tight enough
   to catch a hot path falling back to a quadratic or allocating
   implementation. The sweep tops out at n=101, so a scale regression that
   only bites past the historical n=61 ceiling (fan-out batching is what
   made n=101 routine) still trips it. Best of 5 per row: single-shot
   timings on shared runners swing far more than any real regression. *)
let gate () =
  let failed = ref false in
  let base =
    match read_baseline () with
    | Some b -> b
    | None ->
        Printf.printf "engine-smoke: cannot read baseline %s\n%!" baseline_path;
        failed := true;
        []
  in
  let rows = H.Experiments.e11_scale_rows ~ns:[ 7; 13; 25; 61; 101 ] ~repeats:5 () in
  let tbl = H.Table.create [ "n"; "events"; "wall(ms)"; "events/sec"; "vs baseline" ] in
  List.iter
    (fun (r : H.Experiments.scale_row) ->
      let eps = r.H.Experiments.sr_events_per_sec in
      let verdict =
        match List.assoc_opt r.H.Experiments.sr_n base with
        | None -> "-"
        | Some b when eps *. 3.0 < b ->
            failed := true;
            Printf.sprintf "%.2fx SLOWER (fail)" (b /. eps)
        | Some b -> Printf.sprintf "%.2fx" (eps /. b)
      in
      H.Table.add_row tbl
        [
          string_of_int r.H.Experiments.sr_n;
          string_of_int r.H.Experiments.sr_events;
          Printf.sprintf "%.1f" r.H.Experiments.sr_wall_ms;
          Printf.sprintf "%.0f" eps;
          verdict;
        ])
    rows;
  H.Table.print tbl;
  if !failed then begin
    print_endline "engine-smoke: FAILED";
    exit 1
  end
  else print_endline "engine-smoke: ok"

let () =
  match Array.to_list Sys.argv with
  | [ _; "--engine-smoke" ] -> gate ()
  | [ _; "--engine-json" ] -> record ()
  | _ ->
      prerr_endline "usage: main.exe (--engine-smoke | --engine-json)";
      exit 2
