(* Message envelopes.

   The paper's network (§2, Definition 2) authenticates the sender identity
   and content of every delivered message. The envelope therefore carries a
   [src] stamped by the network itself — protocol code and Byzantine nodes
   alike cannot forge it. The transient-fault injector alone delivers
   envelopes whose [src] is a claim, to model the *incoherent* period.

   Fields are mutable solely so that an owner can deliver through one
   record: the network writes src, dst and payload into its single envelope
   before each handler call, and the reliable transport does the same with
   its own. No float field: a shared record written on every delivery would
   box a fresh float each time. Handlers must treat envelopes as read-only
   snapshots valid for the duration of the call — copy fields out, never
   retain the record. *)

type 'a t = { mutable src : int; mutable dst : int; mutable payload : 'a }

let make ~src ~dst payload = { src; dst; payload }

let set m ~src ~dst payload =
  m.src <- src;
  m.dst <- dst;
  m.payload <- payload

let pp pp_payload ppf m = Fmt.pf ppf "%d->%d %a" m.src m.dst pp_payload m.payload
