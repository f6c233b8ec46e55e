(* A first-class sending surface.

   Protocol code (Node, adversary behaviours) talks to "the network" through
   this record so the same code runs over the raw bounded-delay network or
   over a reliable-transport session layered on top of it. The record is a
   plain closure bundle — no functors, no first-class modules — because the
   call sites are few and hot paths go through one indirection either way. *)

type 'a t = {
  n : int;  (* number of addressable nodes *)
  send : src:int -> dst:int -> 'a -> unit;
  broadcast : src:int -> 'a -> unit;
  set_handler : int -> ('a Msg.t -> unit) -> unit;
}

let size t = t.n
let send t ~src ~dst payload = t.send ~src ~dst payload
let broadcast t ~src payload = t.broadcast ~src payload
let set_handler t node h = t.set_handler node h
