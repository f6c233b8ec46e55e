(* Regenerate the experiment tables of EXPERIMENTS.md (DESIGN.md §4).

   With no arguments, runs every experiment; otherwise runs the named ones
   (e1..e17; e15 is the knife gate on the ssba_mc CLI). *)

module X = Ssba_harness.Experiments

(* E14, E16 and E17 live in the libraries above the harness. *)
let experiments =
  X.all
  @ [
      { X.name = "e14"; doc = "exhaustive small-model checking"; run = Ssba_mc.Mc.e14 };
      {
        X.name = "e16";
        doc = "scale curve + multi-core campaign speedup";
        run = Ssba_fuzz.E16.run;
      };
      { X.name = "e17"; doc = "recurrent-agreement service soak"; run = Ssba_service.E17.run };
    ]

let find name = List.find_opt (fun (e : X.experiment) -> e.X.name = name) experiments

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map (fun (e : X.experiment) -> e.X.name) experiments
  in
  let unknown = List.filter (fun n -> find n = None) requested in
  if unknown <> [] then begin
    Printf.eprintf "unknown experiment(s): %s\navailable:\n" (String.concat " " unknown);
    List.iter (fun (e : X.experiment) -> Printf.eprintf "  %s  %s\n" e.X.name e.X.doc) experiments;
    exit 1
  end;
  List.iter (fun name -> Option.iter (fun (e : X.experiment) -> e.X.run ()) (find name)) requested
