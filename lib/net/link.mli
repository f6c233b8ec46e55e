(** A first-class sending surface.

    Protocol code depends on this record instead of [Network.t] directly so
    it runs unchanged over the raw bounded-delay network or over a reliable
    transport layered on top ([Ssba_transport.Transport.link]). *)

type 'a t = {
  n : int;
  send : src:int -> dst:int -> 'a -> unit;
  broadcast : src:int -> 'a -> unit;
  set_handler : int -> ('a Msg.t -> unit) -> unit;
}

val size : 'a t -> int
val send : 'a t -> src:int -> dst:int -> 'a -> unit
val broadcast : 'a t -> src:int -> 'a -> unit
val set_handler : 'a t -> int -> ('a Msg.t -> unit) -> unit
