(** Registry of named monotonic counters and float gauges.

    The engine owns one registry per simulation; the network, engine and node
    layers feed it. Handles are find-or-created by name once and then updated
    through their record fields, so a hot-path update is a single store.

    Naming convention: dot-separated components with refining suffixes, e.g.
    [net.sent], [net.sent.echo], [net.in_flight], [engine.events],
    [node3.returns.decided]. *)

type t
type counter
type gauge

val create : unit -> t

(** Find-or-create. Raises [Invalid_argument] if the name is already
    registered as the other metric class. *)
val counter : t -> string -> counter

val gauge : t -> string -> gauge

(** Add one. *)
val incr : counter -> unit

(** [incr_by c by] adds [by]. Raises [Invalid_argument] when [by < 0]:
    counters are monotonic. *)
val incr_by : counter -> int -> unit

val value : counter -> int
val counter_name : counter -> string

val set : gauge -> float -> unit
val add : gauge -> float -> unit
val gauge_value : gauge -> float
val gauge_name : gauge -> string

val find_counter : t -> string -> int option
val find_gauge : t -> string -> float option

(** [counters_with_prefix t prefix] is every counter whose name starts
    with [prefix], as (rest of the name, value), in ascending
    [String.compare] order of the rest: the network's per-kind sends are
    [counters_with_prefix t "net.sent."]. Allocates only for the names that
    match. *)
val counters_with_prefix : t -> string -> (string * int) list

(** All metrics as (name, value), in ascending [String.compare] order of
    the name — an explicit, monomorphic ordering (pinned by a test), never
    the registration or hash order. *)
val to_list : t -> (string * float) list

(** One JSON object per line ({i metric}, {i type}, {i value}), in
    registration order so exports of the same scenario can be diffed. *)
val to_jsonl : t -> string

val pp : Format.formatter -> t -> unit
