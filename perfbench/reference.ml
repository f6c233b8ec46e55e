(* The reference kernel: a fixed piece of plain OCaml work that uses no
   ssba code and never changes. The benchmark runs it between rounds and
   states each round's timing in units of the kernel runs beside it.

   On a shared machine the speed of the whole host drifts by tens of percent
   over seconds to minutes, in spells that can outlast a run. Such a spell
   slows the kernel and the round next to it alike, so their ratio stays put
   where wall time does not. The kernel mixes what the simulator does: a table of small boxed
   values large enough to reach the major heap, a sort, and a list built and
   walked through the minor heap. One run takes tens of milliseconds and
   holds about 10 MB live, so the heap figures are read before it first
   runs. *)

let size = 60_000

let kernel () =
  let h = Hashtbl.create 16 in
  for i = 0 to size do
    Hashtbl.replace h (i * 7919 mod 1_000_003) (Array.make 4 i)
  done;
  let hits = ref 0 in
  for r = 0 to 3 do
    for i = 0 to size do
      match Hashtbl.find_opt h (i * r) with Some a -> hits := !hits + a.(0) | None -> ()
    done
  done;
  let a = Array.init size (fun i -> float_of_int (i * 7919 mod 60_013)) in
  Array.sort Float.compare a;
  let l = List.init (size * 5 / 3) (fun i -> (i, string_of_int i)) in
  ignore (Sys.opaque_identity (List.rev_map (fun (i, _) -> i + !hits) l));
  ignore (Sys.opaque_identity a)

(* Wall ms of one run of the kernel. *)
let time_ms () =
  let t0 = Clock.now_ns () in
  kernel ();
  float_of_int (Clock.now_ns () - t0) /. 1e6
