(** Aligned plain-text tables for experiment output. *)

type t

val create : string list -> t

(** Add a row. Rows print newest first: the row added last sits directly
    under the header. *)
val add_row : t -> string list -> unit

(** Render with auto-sized columns, header separator and trailing newline. *)
val render : t -> string

val print : t -> unit

(** Numeric cell helpers. *)
val f3 : float -> string

(** Seconds rendered as milliseconds. *)
val ms : float -> string

(** A duration rendered in units of [d], e.g. ["2.00d"]. *)
val in_d : d:float -> float -> string

val yn : bool -> string
