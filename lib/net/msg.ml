(* Message envelopes.

   The paper's network (§2, Definition 2) authenticates the sender identity
   and content of every delivered message. The envelope therefore carries a
   [src] stamped by the network itself — protocol code and Byzantine nodes
   alike cannot forge it. The [forged] flag exists only so the transient-fault
   injector can model the *incoherent* period, during which the network may
   deliver arbitrary garbage; property checks never trust forged envelopes.

   Fields are mutable solely so the network can pool envelope records for
   in-flight messages (the delivery arena): one record serves every delivery
   of a broadcast, with [dst] rewritten before each handler call. Only the
   network writes them, and only between deliveries. Handlers must treat
   envelopes as read-only snapshots valid for the duration of the call —
   copy fields out, never retain the record. *)

type 'a t = {
  mutable src : int;
  mutable dst : int;
  mutable sent_at : float;  (* real time at which the send was issued *)
  mutable forged : bool;  (* true only for incoherent-period garbage *)
  mutable payload : 'a;
}

let make ~src ~dst ~sent_at payload =
  { src; dst; sent_at; forged = false; payload }

let forge ~claimed_src ~dst ~sent_at payload =
  { src = claimed_src; dst; sent_at; forged = true; payload }

let with_payload m payload =
  { src = m.src; dst = m.dst; sent_at = m.sent_at; forged = m.forged; payload }

let set m ~src ~dst ~sent_at ~forged payload =
  m.src <- src;
  m.dst <- dst;
  m.sent_at <- sent_at;
  m.forged <- forged;
  m.payload <- payload

let pp pp_payload ppf m =
  Fmt.pf ppf "%d->%d%s %a" m.src m.dst (if m.forged then "(forged)" else "") pp_payload m.payload
