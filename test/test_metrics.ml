(* Tests for the metrics registry (named counters and gauges). *)

open Helpers
module M = Ssba_sim.Metrics
module Json = Ssba_sim.Json

let test_counter_basics () =
  let m = M.create () in
  let c = M.counter m "a.count" in
  check_int "starts at zero" 0 (M.value c);
  M.incr c;
  M.incr_by c 4;
  check_int "accumulates" 5 (M.value c);
  check_str "name" "a.count" (M.counter_name c)

let test_gauge_basics () =
  let m = M.create () in
  let g = M.gauge m "a.level" in
  check_float "starts at zero" 0.0 (M.gauge_value g);
  M.set g 2.5;
  M.add g (-1.0);
  check_float "set then add" 1.5 (M.gauge_value g);
  check_str "name" "a.level" (M.gauge_name g)

let test_find_or_create () =
  let m = M.create () in
  let c1 = M.counter m "x" in
  M.incr c1;
  let c2 = M.counter m "x" in
  M.incr c2;
  check_int "same handle by name" 2 (M.value c1);
  check_bool "find_counter" true (M.find_counter m "x" = Some 2);
  check_bool "find missing" true (M.find_counter m "nope" = None);
  check_bool "find wrong class" true (M.find_gauge m "x" = None)

let test_class_mismatch_rejected () =
  let m = M.create () in
  ignore (M.counter m "x");
  (match M.gauge m "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "gauge over counter name must be rejected");
  ignore (M.gauge m "y");
  match M.counter m "y" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "counter over gauge name must be rejected"

let test_monotonic () =
  let m = M.create () in
  let c = M.counter m "x" in
  match M.incr_by c (-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative increment must be rejected"

(* The per-kind send counts are read through this: names under the prefix,
   prefix stripped, in String.compare order. A name equal to the prefix
   without its dot, one that differs only in its first character, a gauge
   and other counters are left out. *)
let test_counters_with_prefix () =
  let m = M.create () in
  M.incr_by (M.counter m "net.sent") 9;
  M.incr (M.counter m "Net.sent.echo");
  M.incr_by (M.counter m "net.sent.init") 2;
  M.incr (M.counter m "net.sent.echo");
  M.incr_by (M.counter m "net.sent.Z") 4;
  M.set (M.gauge m "net.sent.gauge") 1.0;
  M.incr (M.counter m "net.delivered");
  check_bool "matching counters, sorted" true
    (M.counters_with_prefix m "net.sent." = [ ("Z", 4); ("echo", 1); ("init", 2) ]);
  check_bool "no match" true (M.counters_with_prefix m "transport." = [])

(* A registry entry that does not match costs no allocation: the read over
   a registry of 1,000 other names allocates what it does over an empty
   one. *)
let test_counters_with_prefix_allocation () =
  let words m =
    ignore (M.counters_with_prefix m "net.sent.");
    let w0 = Gc.minor_words () in
    ignore (M.counters_with_prefix m "net.sent.");
    Gc.minor_words () -. w0
  in
  let empty = M.create () in
  let busy = M.create () in
  for i = 1 to 1_000 do
    M.incr (M.counter busy (Printf.sprintf "net.sen%d" i))
  done;
  check_float "non-matching entries allocate nothing" (words empty) (words busy)

let test_to_list_sorted () =
  let m = M.create () in
  M.incr_by (M.counter m "b") 2;
  M.set (M.gauge m "a") 1.5;
  check_bool "sorted (name, value) pairs" true
    (M.to_list m = [ ("a", 1.5); ("b", 2.0) ])

(* Pins [to_list]'s ordering: ascending String.compare on the name — neither
   registration order nor hash order, and string order, not numeric (so
   "node10" sorts before "node2"). *)
let test_to_list_order_pinned () =
  let m = M.create () in
  List.iter
    (fun name -> ignore (M.counter m name))
    [ "net.sent"; "engine.events"; "node10.returns"; "node2.returns" ];
  M.set (M.gauge m "net.in_flight") 1.0;
  check_bool "ascending String.compare order" true
    (List.map fst (M.to_list m)
    = [
        "engine.events";
        "net.in_flight";
        "net.sent";
        "node10.returns";
        "node2.returns";
      ])

let test_jsonl_export () =
  let m = M.create () in
  M.incr_by (M.counter m "net.sent") 3;
  M.set (M.gauge m "net.in_flight") 2.0;
  let lines =
    String.split_on_char '\n' (M.to_jsonl m) |> List.filter (fun l -> l <> "")
  in
  check_int "one line per metric" 2 (List.length lines);
  (* registration order, each line a self-contained JSON object *)
  let parsed = List.map Json.of_string lines in
  let name j =
    match Json.member "metric" j with Some (Json.Str s) -> s | _ -> "?"
  in
  check_bool "registration order" true
    (List.map name parsed = [ "net.sent"; "net.in_flight" ]);
  List.iter
    (fun j ->
      check_bool "type field" true
        (match Json.member "type" j with
        | Some (Json.Str ("counter" | "gauge")) -> true
        | _ -> false);
      check_bool "value field" true
        (match Json.member "value" j with Some (Json.Num _) -> true | _ -> false))
    parsed

let suite =
  [
    case "counter basics" test_counter_basics;
    case "gauge basics" test_gauge_basics;
    case "find or create" test_find_or_create;
    case "class mismatch rejected" test_class_mismatch_rejected;
    case "counters are monotonic" test_monotonic;
    case "counters with a prefix" test_counters_with_prefix;
    case "prefix read allocates only for matches" test_counters_with_prefix_allocation;
    case "to_list sorted" test_to_list_sorted;
    case "to_list order pinned" test_to_list_order_pinned;
    case "jsonl export" test_jsonl_export;
  ]
