(* Nested wall-time and allocation spans recorded from outside the program.

   A span is opened and closed around a call into one layer. Spans nest
   (a send made inside a delivery handler is a child of that delivery), and
   each span's self time is its duration minus the part covered by its
   children — a per-depth child accumulator keeps this O(1) per span.

   Fine-grained spans (one per message) only update their accumulator;
   [end_op] folds every accumulator into a per-op row and resets it, so a
   run's memory stays proportional to ops, not messages. Coarse spans
   ([keep] accumulators: an op, a world setup, an [Engine.run]) are also
   stored individually, with their parent and op id, for the span dump.

   Opening and closing a span allocates nothing unless it is coarse. *)

type acc = {
  name : string;
  keep : bool;
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable self_words : int;
}

type record = {
  r_name : string;
  r_parent : string;
  r_op : int;
  r_start_ns : int;
  r_ns : int;
  r_self_ns : int;
  r_words : int;  (** minor words allocated inside the span, children included *)
}

type row = {
  op : int;
  layer : string;
  calls : int;
  ns : int;
  self : int;
  words : int;  (** self words *)
}

type t = {
  now : unit -> int;
  words : unit -> int;
  open_accs : acc array;
  t0 : int array;
  w0 : int array;
  child_ns : int array;
  child_words : int array;
  mutable depth : int;
  mutable op : int;
  mutable accs : acc list;  (* registration order, reversed *)
  mutable records : record list;  (* newest first *)
  mutable rows : row list;  (* newest first *)
}

let root = { name = "root"; keep = false; count = 0; total_ns = 0; self_ns = 0; self_words = 0 }
let max_depth = 32

let create ?(now = Clock.now_ns) ?(words = Clock.minor_words) () =
  {
    now;
    words;
    open_accs = Array.make (max_depth + 1) root;
    t0 = Array.make (max_depth + 1) 0;
    w0 = Array.make (max_depth + 1) 0;
    child_ns = Array.make (max_depth + 1) 0;
    child_words = Array.make (max_depth + 1) 0;
    depth = 0;
    op = 0;
    accs = [];
    records = [];
    rows = [];
  }

let acc ?(keep = false) t name =
  let a = { name; keep; count = 0; total_ns = 0; self_ns = 0; self_words = 0 } in
  t.accs <- a :: t.accs;
  a

let start t a =
  let d = t.depth + 1 in
  if d > max_depth then invalid_arg "Span.start: spans nested too deeply";
  t.depth <- d;
  t.open_accs.(d) <- a;
  t.child_ns.(d) <- 0;
  t.child_words.(d) <- 0;
  t.w0.(d) <- t.words ();
  t.t0.(d) <- t.now ()

let stop t =
  let t1 = t.now () in
  let w1 = t.words () in
  let d = t.depth in
  if d = 0 then invalid_arg "Span.stop: no open span";
  let a = t.open_accs.(d) in
  let ns = t1 - t.t0.(d) in
  let words = w1 - t.w0.(d) in
  let self = ns - t.child_ns.(d) in
  a.count <- a.count + 1;
  a.total_ns <- a.total_ns + ns;
  a.self_ns <- a.self_ns + self;
  a.self_words <- a.self_words + words - t.child_words.(d);
  if a.keep then
    t.records <-
      {
        r_name = a.name;
        r_parent = t.open_accs.(d - 1).name;
        r_op = t.op;
        r_start_ns = t.t0.(d);
        r_ns = ns;
        r_self_ns = self;
        r_words = words;
      }
      :: t.records;
  t.depth <- d - 1;
  t.child_ns.(d - 1) <- t.child_ns.(d - 1) + ns;
  t.child_words.(d - 1) <- t.child_words.(d - 1) + words

(* Fold every accumulator touched during the op into a row and reset it. *)
let end_op t =
  if t.depth <> 0 then invalid_arg "Span.end_op: spans still open";
  List.iter
    (fun a ->
      if a.count > 0 then begin
        t.rows <-
          { op = t.op; layer = a.name; calls = a.count; ns = a.total_ns; self = a.self_ns; words = a.self_words }
          :: t.rows;
        a.count <- 0;
        a.total_ns <- 0;
        a.self_ns <- 0;
        a.self_words <- 0
      end)
    (List.rev t.accs);
  t.op <- t.op + 1

let ops t = t.op
let rows t = List.rev t.rows
let records t = List.rev t.records

(* Sums over every op's row for [layer]. *)
type totals = { t_calls : int; t_ns : int; t_self : int; t_words : int }

let totals t layer =
  List.fold_left
    (fun acc r ->
      if r.layer = layer then
        {
          t_calls = acc.t_calls + r.calls;
          t_ns = acc.t_ns + r.ns;
          t_self = acc.t_self + r.self;
          t_words = acc.t_words + r.words;
        }
      else acc)
    { t_calls = 0; t_ns = 0; t_self = 0; t_words = 0 }
    t.rows

let record_to_json r =
  let open Ssba_sim.Json in
  let num i = Num (float_of_int i) in
  Obj
    [
      ("span", Str r.r_name);
      ("parent", Str r.r_parent);
      ("op", num r.r_op);
      ("start_ns", num r.r_start_ns);
      ("ns", num r.r_ns);
      ("self_ns", num r.r_self_ns);
      ("words", num r.r_words);
    ]
