(** Minimal dependency-free JSON encoder/decoder, sufficient for the
    trace/metrics JSONL export and the fuzz replay codecs. All numbers are
    floats; NaN/infinity encode as [null]. *)

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

(** Field readers of the replay codecs ([Ssba_fuzz.Spec],
    [Ssba_service.Workload]), which [open] it. Each raises {!Read.Decode}
    with a message that names the field (["missing field \"x\""],
    ["field \"x\": expected number"]); a codec catches it and returns
    [Error]. *)
module Read : sig
  exception Decode of string

  (** [fail fmt ...] raises {!Decode} with the formatted message. *)
  val fail : ('a, unit, string, 'b) format4 -> 'a

  val get_field : string -> t -> t
  val get_float : string -> t -> float

  (** An integral number. *)
  val get_int : string -> t -> int

  val get_str : string -> t -> string
  val get_list : string -> t -> t list
  val str_list : string -> t -> string list
  val int_list : string -> t -> int list
  val float_list : string -> t -> float list
end

(** [write_file path text] writes [text] to [path], replacing the file.
    [Error] carries the system's reason (e.g. ["No such file or
    directory"]). *)
val write_file : string -> string -> (unit, string) result
