(* Shared protocol types.

   A [message] is everything a node may put on the wire. The three layers of
   the protocol each have their own constructors:
   - [Initiator]: the General's initiation (ss-Byz-Agree block Q0);
   - [Ia]: the support/approve/ready messages of Initiator-Accept (Fig. 2);
   - [Mb]: the init/echo/init'/echo' messages of msgd-broadcast (Fig. 3),
     carrying the broadcaster [p], the agreement instance [g] they belong to,
     the broadcast value and the round tag [k].

   The sender identity is carried by the network envelope (authenticated),
   never inside the payload. *)

type node_id = int
type general = node_id
type value = string

type ia_kind = Support | Approve | Ready

type mb_kind = Init | Echo | Init2 | Echo2
(* Init2/Echo2 are the paper's primed init'/echo'. *)

type message =
  | Initiator of { g : general; v : value }
  | Ia of { kind : ia_kind; g : general; v : value }
  | Mb of { kind : mb_kind; p : node_id; g : general; v : value; k : int }

type outcome = Decided of value | Aborted

(* What a node reports when an agreement instance stops (Definition 7):
   it decides (returns a value) or aborts (returns bot). [tau_g] and
   [tau_ret] are local-clock readings; [rt_ret] is the simulator real time of
   the return, recorded for the harness's rt(tau)-based property checks. *)
type return_info = {
  node : node_id;
  g : general;
  outcome : outcome;
  tau_g : float;
  tau_ret : float;
  rt_ret : float;
}

let string_of_ia_kind = function
  | Support -> "support"
  | Approve -> "approve"
  | Ready -> "ready"

let string_of_mb_kind = function
  | Init -> "init"
  | Echo -> "echo"
  | Init2 -> "init'"
  | Echo2 -> "echo'"

(* Coarse classifier for per-kind network statistics. *)
let kind_of_message = function
  | Initiator _ -> "initiator"
  | Ia { kind; _ } -> string_of_ia_kind kind
  | Mb { kind; _ } -> string_of_mb_kind kind

(* The model checker's text of an in-flight message, e.g.
   [(echo p=1 G=0 "a" k=2)]: the value is escaped and quoted as [%S] would
   write it. Part of every state fingerprint, so it must not change. *)
let add_message buf m =
  let add = Buffer.add_string and int = Ssba_sim.Fp_text.int in
  let quoted v = add buf " \""; add buf (String.escaped v); add buf "\"" in
  (match m with
  | Initiator { g; v } -> add buf "(initiator G="; int buf g; quoted v
  | Ia { kind; g; v } ->
      add buf "("; add buf (string_of_ia_kind kind); add buf " G="; int buf g;
      quoted v
  | Mb { kind; p; g; v; k } ->
      add buf "("; add buf (string_of_mb_kind kind); add buf " p="; int buf p;
      add buf " G="; int buf g; quoted v; add buf " k="; int buf k);
  Buffer.add_char buf ')'

let pp_outcome ppf = function
  | Decided v -> Fmt.pf ppf "decided %S" v
  | Aborted -> Fmt.pf ppf "aborted"

let pp_return ppf r =
  Fmt.pf ppf "node=%d G=%d %a tauG=%.6f tau=%.6f rt=%.6f" r.node r.g pp_outcome
    r.outcome r.tau_g r.tau_ret r.rt_ret

(* Execution context handed to the protocol state machines by the node glue.
   Keeping I/O behind these four callbacks makes every layer unit-testable
   with a fake context. Times are local-clock readings; [after_local]
   schedules a wake-up a local-time duration ahead. [trace] takes a typed
   event; implementations must not render it unless tracing is enabled. *)
type ctx = {
  params : Params.t;
  self : node_id;
  local_time : unit -> float;
  send_all : message -> unit;
  after_local : float -> (unit -> unit) -> unit;
  trace : Ssba_sim.Trace.event -> unit;
}
