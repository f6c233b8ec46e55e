(** Message envelopes with authenticated sender identity (paper §2, Def. 2).

    [src] is stamped by the network itself; protocol code and Byzantine nodes
    cannot forge it. Only the transient-fault injector delivers an envelope
    whose [src] is a claim ([Network.inject_forged]).

    Fields are mutable solely for their owner: the network keeps one
    envelope for all of its deliveries and the reliable transport one for
    all of its unwrapped frames, each rewritten before every handler call.
    Handlers receive an envelope as a read-only snapshot valid for the
    duration of the call: copy fields out, never retain the record or write
    to it. *)

type 'a t = { mutable src : int; mutable dst : int; mutable payload : 'a }

val make : src:int -> dst:int -> 'a -> 'a t

(** Overwrite every field in place (the owner of a shared envelope only). *)
val set : 'a t -> src:int -> dst:int -> 'a -> unit

val pp :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
