(* Metrics registry: named monotonic counters and float gauges.

   The engine owns one registry per simulation (like it owns the trace);
   the network, engine and node layers feed it. Counters and gauges are
   find-or-created by name once, then held in record fields by their users,
   so the hot-path cost of an update is a single mutable store — no hashing.

   Naming convention (dots separate components, suffixes refine):
     net.sent / net.delivered / net.dropped      network totals
     net.in_flight                               gauge: scheduled, undelivered
     net.sent.<kind>                             per-message-kind sends
     engine.events                               events processed
     node<i>.proposals / node<i>.returns.*       per-node protocol counters *)

type counter = { c_name : string; mutable c_value : int }
(* The gauge value lives in a 1-slot float array: float stores into a mixed
   record box a fresh float on every update, and the network bumps gauges
   four times per delivery on the hot path; float-array stores are raw. *)
type gauge = { g_name : string; g_cell : float array }

type metric = Counter of counter | Gauge of gauge

type t = {
  by_name : (string, metric) Hashtbl.t;
  mutable order : string list;  (* registration order, newest first *)
}

let create () = { by_name = Hashtbl.create 32; order = [] }

let register t name m =
  Hashtbl.replace t.by_name name m;
  t.order <- name :: t.order

let counter t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (Counter c) -> c
  | Some (Gauge _) ->
      invalid_arg (Printf.sprintf "Metrics.counter: %S is a gauge" name)
  | None ->
      let c = { c_name = name; c_value = 0 } in
      register t name (Counter c);
      c

let gauge t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (Gauge g) -> g
  | Some (Counter _) ->
      invalid_arg (Printf.sprintf "Metrics.gauge: %S is a counter" name)
  | None ->
      let g = { g_name = name; g_cell = [| 0.0 |] } in
      register t name (Gauge g);
      g

let incr c = c.c_value <- c.c_value + 1

let incr_by c by =
  if by < 0 then invalid_arg "Metrics.incr_by: counters are monotonic";
  c.c_value <- c.c_value + by

let value c = c.c_value
let counter_name c = c.c_name

let set g x = Array.unsafe_set g.g_cell 0 x
let add g dx = Array.unsafe_set g.g_cell 0 (Array.unsafe_get g.g_cell 0 +. dx)
let gauge_value g = g.g_cell.(0)
let gauge_name g = g.g_name

let find_counter t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (Counter c) -> Some c.c_value
  | Some (Gauge _) | None -> None

let find_gauge t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (Gauge g) -> Some g.g_cell.(0)
  | Some (Counter _) | None -> None

(* [name] agrees with [prefix] from index [i] to the prefix's end; the
   caller has checked that [name] is at least as long. Top level, so a
   check allocates nothing (a local closure would, once per registry
   entry). *)
let rec prefixed ~prefix name i =
  i = String.length prefix
  || (String.unsafe_get prefix i = String.unsafe_get name i
     && prefixed ~prefix name (i + 1))

let counters_with_prefix t prefix =
  let plen = String.length prefix in
  Hashtbl.fold
    (fun name m acc ->
      match m with
      | Counter c when String.length name >= plen && prefixed ~prefix name 0 ->
          (String.sub name plen (String.length name - plen), c.c_value) :: acc
      | Counter _ | Gauge _ -> acc)
    t.by_name []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Snapshot in ascending name order (explicitly by [String.compare], not the
   polymorphic [compare] on pairs — names are unique so the key alone
   determines the order, and the ordering is pinned by a test). *)
let to_list t =
  Hashtbl.fold
    (fun name m acc ->
      let v = match m with Counter c -> float_of_int c.c_value | Gauge g -> g.g_cell.(0) in
      (name, v) :: acc)
    t.by_name []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let json_of_metric name m =
  let kind, v =
    match m with
    | Counter c -> ("counter", float_of_int c.c_value)
    | Gauge g -> ("gauge", g.g_cell.(0))
  in
  Json.Obj [ ("metric", Json.Str name); ("type", Json.Str kind); ("value", Json.Num v) ]

(* One JSON object per line, in registration order (stable across runs of the
   same scenario, so exports can be diffed). *)
let to_jsonl t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.by_name name with
      | None -> ()
      | Some m ->
          Json.to_buffer buf (json_of_metric name m);
          Buffer.add_char buf '\n')
    (List.rev t.order);
  Buffer.contents buf

let pp ppf t =
  List.iter (fun (name, v) -> Fmt.pf ppf "%-28s %g@." name v) (to_list t)
