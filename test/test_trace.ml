(* Tests for structured traces: typed events, lazy rendering, JSONL export
   and re-import. *)

open Helpers
module Trace = Ssba_sim.Trace
module Json = Ssba_sim.Json

(* A cheap distinct event per (kind) for the bookkeeping tests. *)
let ev_a = Trace.Propose { g = 0; v = "a" }
let ev_b = Trace.Ig3_failure { g = 1 }

let test_chronological () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~node:0 ev_a;
  Trace.record t ~time:2.0 ~node:1 ev_b;
  let kinds = List.map Trace.entry_kind (Trace.to_list t) in
  check_bool "chronological order" true (kinds = [ "propose"; "ig3-failure" ])

let test_filter_by_node () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~node:0 ev_a;
  Trace.record t ~time:2.0 ~node:1 ev_a;
  Trace.record t ~time:3.0 ~node:0 ev_b;
  check_int "node filter" 2 (List.length (Trace.filter ~node:0 t));
  check_int "kind filter" 2 (List.length (Trace.filter ~kind:"propose" t));
  check_int "combined filter" 1
    (List.length (Trace.filter ~node:0 ~kind:"propose" t))

let test_disabled () =
  let t = Trace.create ~enabled:false () in
  Trace.record t ~time:1.0 ~node:0 ev_a;
  check_int "disabled drops" 0 (Trace.count t);
  Trace.enable t;
  Trace.record t ~time:2.0 ~node:0 ev_b;
  check_int "enabled records" 1 (Trace.count t);
  Trace.disable t;
  Trace.record t ~time:3.0 ~node:0 ev_a;
  check_int "disabled again" 1 (Trace.count t)

let test_clear () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~node:0 ev_a;
  Trace.clear t;
  check_int "cleared" 0 (Trace.count t);
  check_bool "empty list" true (Trace.to_list t = [])

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_pp () =
  let t = Trace.create () in
  Trace.record t ~time:1.5 ~node:2
    (Trace.Ext { kind = "boom"; render = (fun () -> "hello") });
  Trace.record t ~time:2.0 ~node:(-1) (Trace.Scramble { garbage = 7 });
  let s = Fmt.str "%a" Trace.pp t in
  check_bool "mentions node" true (contains ~needle:"n2" s);
  check_bool "mentions kind" true (contains ~needle:"boom" s);
  check_bool "renders ext detail" true (contains ~needle:"hello" s);
  check_bool "system entries tagged" true (contains ~needle:"<sys>" s)

(* The zero-allocation contract: a disabled trace must never render event
   details. The Ext renderer counts its invocations, so eager formatting
   anywhere in the record path would show up here. *)
let test_lazy_rendering () =
  let renders = ref 0 in
  let ev =
    Trace.Ext
      {
        kind = "expensive";
        render =
          (fun () ->
            incr renders;
            Printf.sprintf "costly %d" 42);
      }
  in
  let off = Trace.create ~enabled:false () in
  for _ = 1 to 100 do
    Trace.record off ~time:0.0 ~node:0 ev
  done;
  check_int "disabled trace never renders" 0 !renders;
  let on = Trace.create ~enabled:true () in
  Trace.record on ~time:0.0 ~node:0 ev;
  check_int "recording alone does not render" 0 !renders;
  ignore (Trace.to_jsonl on);
  check_bool "export renders" true (!renders > 0)

(* DESIGN.md §7: a disabled trace costs one branch and no allocation, also
   through Engine.record, which every node and core block records through.
   Times are constants: a computed float passed to another module is boxed
   by the caller. *)
let test_disabled_allocates_nothing () =
  let tr = Trace.create ~enabled:false () in
  let engine = Ssba_sim.Engine.create ~trace:tr () in
  let ev = Trace.Send { src = 0; dst = 1; msg = "echo" } in
  let words loop =
    loop ();
    let w0 = Gc.minor_words () in
    loop ();
    Gc.minor_words () -. w0
  in
  let trace_loop () =
    for i = 1 to 10_000 do
      Trace.record tr ~time:0.5 ~node:(i land 7) ev
    done
  in
  let engine_loop () =
    for i = 1 to 10_000 do
      Ssba_sim.Engine.record engine ~node:(i land 7) ev
    done
  in
  check_float "minor words for 10k Trace.record" 0.0 (words trace_loop);
  check_float "minor words for 10k Engine.record" 0.0 (words engine_loop);
  check_int "nothing recorded" 0 (Trace.count tr)

let sample_events =
  [
    Trace.Send { src = 0; dst = 3; msg = "echo" };
    Trace.Deliver { src = 0; dst = 3; msg = "echo" };
    Trace.Drop { src = 2; dst = 5; msg = "init'"; reason = "partition" };
    Trace.Propose { g = 1; v = "m" };
    Trace.Ia_invoke { g = 1; v = "m" };
    Trace.Ia_reject { g = 1; v = "stale" };
    Trace.Ia_skip { g = 4; reason = "no live recording time" };
    Trace.I_accept { g = 1; v = "m"; tau_g = 0.12345 };
    Trace.Anchor_set { g = 1; tau_g = 0.12345 };
    Trace.Mb_accept { g = 1; p = 2; v = "m"; k = 1 };
    Trace.Mb_broadcaster { g = 1; p = 2; total = 5 };
    Trace.Agree_return { g = 1; decided = Some "m"; tau_g = 0.12345 };
    Trace.Agree_return { g = 2; decided = None; tau_g = 1.5 };
    Trace.Ig3_failure { g = 3 };
    Trace.Scramble { garbage = 150 };
  ]

(* Round trip: typed events -> JSONL -> parse -> structurally equal. *)
let test_jsonl_round_trip () =
  let t = Trace.create () in
  List.iteri
    (fun i ev -> Trace.record t ~time:(0.25 *. float_of_int i) ~node:(i mod 4) ev)
    sample_events;
  Trace.record t ~time:99.0 ~node:(-1)
    (Trace.Ext { kind = "custom-kind"; render = (fun () -> "custom detail") });
  let original = Trace.to_list t in
  let jsonl = Trace.to_jsonl t in
  let parsed = Trace.entries_of_jsonl jsonl in
  check_int "entry count survives" (List.length original) (List.length parsed);
  List.iter2
    (fun a b ->
      if not (Trace.equal_entry a b) then
        Alcotest.failf "round trip mismatch: %a vs %a" Trace.pp_entry a
          Trace.pp_entry b)
    original parsed

let test_jsonl_is_parseable_json () =
  let t = Trace.create () in
  List.iter (fun ev -> Trace.record t ~time:1.0 ~node:0 ev) sample_events;
  let lines =
    String.split_on_char '\n' (Trace.to_jsonl t)
    |> List.filter (fun l -> l <> "")
  in
  check_int "one line per entry" (Trace.count t) (List.length lines);
  List.iter
    (fun line ->
      let j = Json.of_string line in
      check_bool "time field" true (Json.member "time" j <> None);
      check_bool "node field" true (Json.member "node" j <> None);
      check_bool "kind field" true
        (match Json.member "kind" j with
        | Some (Json.Str _) -> true
        | _ -> false))
    lines

let test_import_rejects_garbage () =
  let bad () = ignore (Trace.entries_of_jsonl "{\"not\": \"a trace\"}") in
  (match bad () with
  | () -> Alcotest.fail "expected Import_error"
  | exception Trace.Import_error _ -> ());
  match Trace.entries_of_jsonl "" with
  | [] -> ()
  | _ -> Alcotest.fail "empty input should parse to no entries"

let test_unknown_kind_becomes_ext () =
  let line = {|{"time":1.0,"node":2,"kind":"from-the-future","detail":"payload"}|} in
  match Trace.entries_of_jsonl line with
  | [ e ] ->
      check_str "kind preserved" "from-the-future" (Trace.entry_kind e);
      check_str "detail preserved" "payload" (Trace.entry_detail e)
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)

let test_equal_event () =
  check_bool "equal" true
    (Trace.equal_event
       (Trace.Send { src = 0; dst = 1; msg = "echo" })
       (Trace.Send { src = 0; dst = 1; msg = "echo" }));
  check_bool "different payload" false
    (Trace.equal_event
       (Trace.Send { src = 0; dst = 1; msg = "echo" })
       (Trace.Send { src = 0; dst = 2; msg = "echo" }));
  check_bool "different constructors" false
    (Trace.equal_event (Trace.Ig3_failure { g = 0 }) (Trace.Scramble { garbage = 0 }))

let suite =
  [
    case "chronological" test_chronological;
    case "filters" test_filter_by_node;
    case "enable/disable" test_disabled;
    case "clear" test_clear;
    case "pretty printing" test_pp;
    case "lazy rendering" test_lazy_rendering;
    case "jsonl round trip" test_jsonl_round_trip;
    case "jsonl parses as json" test_jsonl_is_parseable_json;
    case "import rejects garbage" test_import_rejects_garbage;
    case "unknown kind becomes ext" test_unknown_kind_becomes_ext;
    case "event equality" test_equal_event;
    case "disabled record allocates nothing" test_disabled_allocates_nothing;
  ]
