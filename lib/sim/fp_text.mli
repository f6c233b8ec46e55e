(** Exact number text for state fingerprints, written straight into a
    buffer: the same bytes as [Printf]'s ["%h"] and ["%d"], without the
    format interpreter. Stateless, so safe to call from several domains. *)

(** [float buf x] appends exactly what [Printf.bprintf buf "%h" x] appends:
    [-0x0p+0], subnormals as [0x0.…p-1022], [infinity], [-infinity], and
    [nan]/[-nan] by the sign bit. *)
val float : Buffer.t -> float -> unit

(** [int buf i] appends exactly what [Printf.bprintf buf "%d" i] appends,
    [min_int] included. *)
val int : Buffer.t -> int -> unit
