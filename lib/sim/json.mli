(** Minimal dependency-free JSON encoder/decoder, sufficient for the
    observability layer's JSONL export and its round-trip tests. All numbers
    are floats; NaN/infinity encode as [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
val to_buffer : Buffer.t -> t -> unit

(** Parse one JSON value; raises {!Parse_error} on malformed input or
    trailing garbage. *)
val of_string : string -> t

(** [member name (Obj fields)] is the value of field [name], if any;
    [None] on non-objects. *)
val member : string -> t -> t option

val to_float_opt : t -> float option
val to_string_opt : t -> string option

(** [to_int_opt] succeeds only on integral numbers. *)
val to_int_opt : t -> int option

(** [write_file path text] writes [text] to [path], replacing the file.
    [Error] carries the system's reason (e.g. ["No such file or
    directory"]). *)
val write_file : string -> string -> (unit, string) result
