(* BENCHMARK.json self-check: the limits the file must respect, and agreement
   between what it declares and what [Names] makes the executable print. *)

module J = Ssba_sim.Json

let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  String.length s >= 1
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

let valid_unit s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
    | _ -> false
  in
  String.length s >= 1 && String.length s <= 16 && String.for_all ok_char s

type declared = { d_name : string; d_unit : string; d_better : string }

let keys = function J.Obj fields -> List.map fst fields | _ -> []
let str k j = Option.bind (J.member k j) J.to_string_opt
let arr k j = match J.member k j with Some (J.Arr l) -> Some l | _ -> None

(* Every problem found, in file order; [] means the manifest is valid. *)
let check (j : J.t) =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let expect_keys what obj want =
    if List.sort compare (keys obj) <> List.sort compare want then
      err "%s: keys must be exactly [%s]" what (String.concat ", " want)
  in
  expect_keys "manifest" j
    [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ];
  (match Option.bind (J.member "run_seconds" j) J.to_int_opt with
  | Some s when s >= 1 && s <= 60 -> ()
  | _ -> err "run_seconds must be a whole number in [1, 60]");
  let seen = Hashtbl.create 64 in
  let named what obj =
    match str "name" obj with
    | None ->
        err "%s: missing name" what;
        ""
    | Some n ->
        if not (valid_name n) then err "%s: invalid name %S" what n;
        if Hashtbl.mem seen n then err "%s: name %S used twice" what n;
        Hashtbl.replace seen n ();
        n
  in
  let count what lo hi = function
    | None ->
        err "%s: missing list" what;
        []
    | Some l ->
        let k = List.length l in
        if k < lo || k > hi then err "%s: %d entries, must be %d to %d" what k lo hi;
        l
  in
  let workloads =
    List.map
      (fun w ->
        expect_keys "workload" w [ "name"; "why" ];
        (match str "why" w with
        | Some why when String.length why <= 200 && not (String.contains why '\n') -> ()
        | _ -> err "workload: why must be one line of at most 200 characters");
        named "workload" w)
      (count "workloads" 2 8 (arr "workloads" j))
  in
  let metrics what ~bounded lo hi =
    List.map
      (fun m ->
        expect_keys what m
          ([ "name"; "unit"; "better" ] @ if bounded then [ "bound" ] else []);
        let name = named what m in
        let u = Option.value ~default:"" (str "unit" m) in
        if not (valid_unit u) then err "%s %s: invalid unit %S" what name u;
        let b = Option.value ~default:"" (str "better" m) in
        if b <> "lower" && b <> "higher" then
          err "%s %s: better must be lower or higher" what name;
        (if bounded then
           match Option.bind (J.member "bound" m) J.to_float_opt with
           | Some x when x > 0.0 && x <= 0.25 -> ()
           | _ -> err "%s %s: bound must be in (0, 0.25]" what name);
        { d_name = name; d_unit = u; d_better = b })
      (count what lo hi (arr what j))
  in
  let e2e = metrics "end_to_end" ~bounded:true 1 16 in
  let layer = metrics "per_layer" ~bounded:false 1 128 in
  (match List.find_opt (fun d -> d.d_name = "setup_s") e2e with
  | Some { d_unit = "s"; d_better = "lower"; _ } -> ()
  | _ -> err "end_to_end must declare setup_s in s, better lower");
  (* The executable prints exactly [Names]'s lists. *)
  if workloads <> Names.workloads then
    err "workloads differ from the benchmark's: [%s]"
      (String.concat ", " Names.workloads);
  let same what declared names =
    let mine =
      List.map
        (fun (m : Names.metric) ->
          { d_name = m.name; d_unit = m.unit_; d_better = Names.better_string m.better })
        names
    in
    if declared <> mine then
      err "%s differs from the metrics the benchmark prints" what
  in
  same "end_to_end" e2e Names.end_to_end;
  same "per_layer" layer Names.per_layer;
  List.rev !errors

let load path =
  let ic = open_in_bin path in
  let s =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  J.of_string s
