(* Tests for structured traces: typed events, lazy rendering and the JSONL
   export. *)

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
  check_int "disabled drops" 0 (Trace.count t)

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

(* One entry of every [Trace.event] constructor plus an [Ext], and an
   abort (a [null] field). Strings that need escaping and floats on each of
   the number encoder's paths (integral, %.12g, %.17g) are in there too. *)
let every_event =
  [
    Trace.Send { src = 0; dst = 3; msg = "echo" };
    Trace.Deliver { src = 0; dst = 3; msg = "echo" };
    Trace.Drop { src = 2; dst = 5; msg = "init'"; reason = "partition" };
    Trace.Propose { g = 1; v = "m" };
    Trace.Ia_invoke { g = 1; v = "m" };
    Trace.Ia_reject { g = 1; v = "st\"ale" };
    Trace.Ia_skip { g = 4; reason = "no live recording time" };
    Trace.I_accept { g = 1; v = "m"; tau_g = 0.12345 };
    Trace.Anchor_set { g = 1; tau_g = 1.0 /. 3.0 };
    Trace.Mb_accept { g = 1; p = 2; v = "m"; k = 1 };
    Trace.Mb_broadcaster { g = 1; p = 2; total = 5 };
    Trace.Agree_return { g = 1; decided = Some "m"; tau_g = 2.0 };
    Trace.Agree_return { g = 2; decided = None; tau_g = 1.5 };
    Trace.Ig3_failure { g = 3 };
    Trace.Scramble { garbage = 150 };
    Trace.Reform { node = 6 };
    Trace.Delay_surge { factor = 2.5 };
    Trace.Duplicate { src = 1; dst = 2; msg = "support" };
    Trace.Retransmit { src = 1; dst = 2; msg = "approve"; attempt = 3 };
    Trace.Dup_suppress { src = 2; dst = 1; seq = 17 };
    Trace.Retries_exhausted { src = 1; dst = 2; msg = "ready"; seq = 18 };
    Trace.Service_admit { g = 9; live = 4 };
    Trace.Service_shed { g = 10; reason = "queue full" };
    Trace.Service_queue { g = 11; depth = 2 };
    Trace.Service_mode { degraded = true; live = 12 };
    Trace.Session_evict { g = 5 };
    Trace.Ext { kind = "custom-kind"; render = (fun () -> "line one\n\ttwo \\") };
  ]

(* Generated once from the exporter and never regenerated: a change to any
   field name, field order, number or string encoding fails here. *)
let golden_jsonl = {|{"time":0,"node":-1,"kind":"send","src":0,"dst":3,"msg":"echo"}
{"time":0.25,"node":0,"kind":"deliver","src":0,"dst":3,"msg":"echo"}
{"time":0.5,"node":1,"kind":"drop","src":2,"dst":5,"msg":"init'","reason":"partition"}
{"time":0.75,"node":2,"kind":"propose","g":1,"v":"m"}
{"time":1,"node":3,"kind":"ia-invoke","g":1,"v":"m"}
{"time":1.25,"node":4,"kind":"ia-k1-reject","g":1,"v":"st\"ale"}
{"time":1.5,"node":5,"kind":"ia-n4-skip","g":4,"reason":"no live recording time"}
{"time":1.75,"node":-1,"kind":"i-accept","g":1,"v":"m","tau_g":0.12345}
{"time":2,"node":0,"kind":"anchor-set","g":1,"tau_g":0.33333333333333331}
{"time":2.25,"node":1,"kind":"mb-accept","g":1,"p":2,"v":"m","k":1}
{"time":2.5,"node":2,"kind":"mb-broadcaster","g":1,"p":2,"total":5}
{"time":2.75,"node":3,"kind":"agree-return","g":1,"decided":"m","tau_g":2}
{"time":3,"node":4,"kind":"agree-return","g":2,"decided":null,"tau_g":1.5}
{"time":3.25,"node":5,"kind":"ig3-failure","g":3}
{"time":3.5,"node":-1,"kind":"scramble","garbage":150}
{"time":3.75,"node":0,"kind":"reform","reformed":6}
{"time":4,"node":1,"kind":"delay-surge","factor":2.5}
{"time":4.25,"node":2,"kind":"duplicate","src":1,"dst":2,"msg":"support"}
{"time":4.5,"node":3,"kind":"retransmit","src":1,"dst":2,"msg":"approve","attempt":3}
{"time":4.75,"node":4,"kind":"dup-suppress","src":2,"dst":1,"seq":17}
{"time":5,"node":5,"kind":"retries-exhausted","src":1,"dst":2,"msg":"ready","seq":18}
{"time":5.25,"node":-1,"kind":"service-admit","g":9,"live":4}
{"time":5.5,"node":0,"kind":"service-shed","g":10,"reason":"queue full"}
{"time":5.75,"node":1,"kind":"service-queue","g":11,"depth":2}
{"time":6,"node":2,"kind":"service-mode","degraded":true,"live":12}
{"time":6.25,"node":3,"kind":"session-evict","g":5}
{"time":6.5,"node":4,"kind":"custom-kind","detail":"line one\n\ttwo \\"}
|}

let test_jsonl_golden () =
  check_int "every constructor plus Ext" 26
    (List.length (List.sort_uniq compare (List.map Trace.kind_of_event every_event)));
  let t = Trace.create () in
  List.iteri
    (fun i ev -> Trace.record t ~time:(0.25 *. float_of_int i) ~node:((i mod 7) - 1) ev)
    every_event;
  check_str "to_jsonl output" golden_jsonl (Trace.to_jsonl t)

let test_jsonl_is_parseable_json () =
  let t = Trace.create () in
  List.iter (fun ev -> Trace.record t ~time:1.0 ~node:0 ev) every_event;
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

let suite =
  [
    case "chronological" test_chronological;
    case "filters" test_filter_by_node;
    case "enable/disable" test_disabled;
    case "pretty printing" test_pp;
    case "lazy rendering" test_lazy_rendering;
    case "jsonl parses as json" test_jsonl_is_parseable_json;
    case "jsonl export golden" test_jsonl_golden;
    case "disabled record allocates nothing" test_disabled_allocates_nothing;
  ]
