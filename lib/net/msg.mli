(** Message envelopes with authenticated sender identity (paper §2, Def. 2).

    [src] is stamped by the network itself; protocol code and Byzantine nodes
    cannot forge it. The [forged] flag exists only for the incoherent-period
    garbage the transient-fault injector delivers.

    Fields are mutable solely for the network's delivery arena: one record
    serves every delivery of a broadcast, its [dst] rewritten before each
    handler call, and records are recycled between broadcasts. Handlers
    receive an envelope as a read-only snapshot valid for the duration of
    the call: copy fields out, never retain the record or write to it. *)

type 'a t = {
  mutable src : int;
  mutable dst : int;
  mutable sent_at : float;  (** real time at which the send was issued *)
  mutable forged : bool;  (** true only for incoherent-period garbage *)
  mutable payload : 'a;
}

(** An authentic envelope. *)
val make : src:int -> dst:int -> sent_at:float -> 'a -> 'a t

(** A forged envelope (fault injection only). *)
val forge : claimed_src:int -> dst:int -> sent_at:float -> 'a -> 'a t

(** Same envelope (src, dst, timestamps, forged flag), new payload. Lets a
    transport layer unwrap a frame without laundering the forged flag. *)
val with_payload : 'a t -> 'b -> 'b t

(** Overwrite every field in place (network pool recycling only). *)
val set :
  'a t -> src:int -> dst:int -> sent_at:float -> forged:bool -> 'a -> unit

val pp :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
