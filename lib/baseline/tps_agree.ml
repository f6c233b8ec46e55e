(* Time-driven baseline: Toueg, Perry & Srikanth's Fast Distributed Agreement
   ([14] in the paper), reconstructed on the same simulator.

   This is the protocol ss-Byz-Agree is modeled on, with the two structural
   properties the paper contrasts itself against:

   - it assumes *initial synchronization*: all nodes share a common round
     structure anchored at a known start time (here [t_start]), and the
     General's value enters through the broadcast primitive rather than
     through the self-stabilizing Initiator-Accept;
   - it is *time-driven*: every send/accept rule is evaluated only at phase
     boundaries (lock-step phases of length Phi), so latency is quantized to
     whole phases regardless of how fast messages actually travel. The
     message-driven protocol's headline advantage (experiment E3) is measured
     against exactly this behaviour.

   Structure per broadcast triplet (p, m, k), phases counted from t_start
   (the General broadcasts (G, m, 0) at phase 0):

     phase 2k     broadcaster sends (init, p, m, k);
     phase 2k+1   init received during the previous phase => send echo;
     phase 2k+2   >= n-2f echoes => send init'; >= n-f echoes => accept;
     phase 2k+3   >= n-2f init' => p joins broadcasters; >= n-f => echo';
     any phase    >= n-2f echo' => relay echo'; >= n-f echo' => accept.

   Agreement, evaluated at each boundary b:
     decide m at round r (deadline b <= 2r+2) if (G, m, 0) was accepted and
     r distinct non-General broadcasters' (p_i, m, i), i = 1..r, were
     accepted; on deciding, broadcast (self, m, r+1);
     abort at boundary 2r+3 if fewer than r broadcasters are known;
     abort at boundary 2f+3 unconditionally.

   The message type is shared with the core protocol (the [Mb] constructors,
   with k = 0 allowed here for the General's own broadcast); baseline
   simulations run their own nodes, so there is no interference. *)

open Ssba_core.Types
module Params = Ssba_core.Params
module Engine = Ssba_sim.Engine
module Clock = Ssba_sim.Clock
module Network = Ssba_net.Network
module Stamps = Ssba_core.Stamps

(* The rules only count distinct senders, so each message class is a
   segment of per-sender stamps, as in the core's msgd-broadcast: [st] is
   echo | init' | echo', n slots each, with their counts beside it. *)
type trip = {
  mutable init_from_p : float option;
  st : float array;
  mutable n_echo : int;
  mutable n_init2 : int;
  mutable n_echo2 : int;
  mutable sent_echo : bool;
  mutable sent_init2 : bool;
  mutable sent_echo2 : bool;
  mutable accepted_at_phase : int option;
}

type t = {
  id : node_id;
  params : Params.t;
  engine : Engine.t;
  clock : Clock.t;
  net : message Network.t;
  g : general;
  t_start : float;  (* local time of phase 0 — common by assumption *)
  trips : (node_id * value * int, trip) Hashtbl.t;
  broadcasters : (node_id, unit) Hashtbl.t;
  mutable phase : int;
  mutable returned : (outcome * float) option;  (* outcome, local time *)
  mutable on_return : outcome -> tau_ret:float -> unit;
}

let local_time t = Clock.read t.clock ~now:(Engine.now t.engine)

let trip_of t key =
  match Hashtbl.find_opt t.trips key with
  | Some tr -> tr
  | None ->
      let tr =
        {
          init_from_p = None;
          st = Array.make (3 * t.params.Params.n) Float.nan;
          n_echo = 0;
          n_init2 = 0;
          n_echo2 = 0;
          sent_echo = false;
          sent_init2 = false;
          sent_echo2 = false;
          accepted_at_phase = None;
        }
      in
      Hashtbl.replace t.trips key tr;
      tr

let send t kind ~p ~v ~k =
  Network.broadcast t.net ~src:t.id (Mb { kind; p; g = t.g; v; k })

let returned t = t.returned
let set_on_return t f = t.on_return <- f

let do_return t outcome =
  if t.returned = None then begin
    let tau = local_time t in
    t.returned <- Some (outcome, tau);
    let phase = t.phase in
    Engine.record t.engine ~node:t.id
      (Ssba_sim.Trace.Ext
         {
           kind = "tps-return";
           render = (fun () -> Fmt.str "%a at phase %d" pp_outcome outcome phase);
         });
    t.on_return outcome ~tau_ret:tau
  end

(* The senders of round [i]'s accepted broadcasts of value [v], the General
   excluded; block S's matching over them is the core protocol's. *)
let accepted_senders t ~v i =
  Hashtbl.fold
    (fun (p, v', k) tr acc ->
      if k = i && p <> t.g && String.equal v v' && tr.accepted_at_phase <> None
      then p :: acc
      else acc)
    t.trips []

let accepted_general_value t =
  Hashtbl.fold
    (fun (p, v, k) tr acc ->
      if p = t.g && k = 0 && tr.accepted_at_phase <> None then Some v else acc)
    t.trips None

(* Evaluate one triplet's rules at boundary [b]. *)
let eval_trip t b (p, v, k) tr =
  let n_f = Params.quorum t.params in
  let n_2f = Params.weak_quorum t.params in
  if b = (2 * k) + 1 && tr.init_from_p <> None && not tr.sent_echo then begin
    tr.sent_echo <- true;
    send t Echo ~p ~v ~k
  end;
  if b = (2 * k) + 2 then begin
    if tr.n_echo >= n_2f && not tr.sent_init2 then begin
      tr.sent_init2 <- true;
      send t Init2 ~p ~v ~k
    end;
    if tr.n_echo >= n_f && tr.accepted_at_phase = None
    then tr.accepted_at_phase <- Some b
  end;
  if b = (2 * k) + 3 then begin
    if tr.n_init2 >= n_2f then
      Hashtbl.replace t.broadcasters p ();
    if tr.n_init2 >= n_f && not tr.sent_echo2 then begin
      tr.sent_echo2 <- true;
      send t Echo2 ~p ~v ~k
    end
  end;
  if b >= (2 * k) + 3 then begin
    if tr.n_echo2 >= n_2f && not tr.sent_echo2 then begin
      tr.sent_echo2 <- true;
      send t Echo2 ~p ~v ~k
    end;
    if tr.n_echo2 >= n_f && tr.accepted_at_phase = None
    then tr.accepted_at_phase <- Some b
  end

(* The agreement rules at boundary [b]. *)
let eval_agreement t b =
  if t.returned = None then begin
    let f = t.params.Params.f in
    (match accepted_general_value t with
    | Some v ->
        let rec try_r r =
          if r > f then ()
          else if b > (2 * r) + 2 then try_r (r + 1)
          else if
            Ssba_core.Ss_byz_agree.matches_rounds
              ~candidates:(accepted_senders t ~v) ~r
          then begin
            if r < f then send t Init ~p:t.id ~v ~k:(r + 1);
            do_return t (Decided v)
          end
          else try_r (r + 1)
        in
        try_r 0
    | None -> ());
    if t.returned = None then begin
      let r = (b - 3) / 2 in
      if b >= 3 && b = (2 * r) + 3 && Hashtbl.length t.broadcasters < r then
        do_return t Aborted
    end;
    if t.returned = None && b >= (2 * f) + 3 then do_return t Aborted
  end

let boundary t b =
  t.phase <- b;
  Hashtbl.iter (fun key tr -> eval_trip t b key tr) t.trips;
  eval_agreement t b

let create ~id ~params ~clock ~engine ~net ~g ~t_start =
  let t =
    {
      id;
      params;
      engine;
      clock;
      net;
      g;
      t_start;
      trips = Hashtbl.create 8;
      broadcasters = Hashtbl.create 8;
      phase = 0;
      returned = None;
      on_return = (fun _ ~tau_ret:_ -> ());
    }
  in
  Network.set_handler net id (fun env ->
      let sender = env.Ssba_net.Msg.src in
      match env.Ssba_net.Msg.payload with
      | Mb { kind; p; v; k; g } when g = t.g && k >= 0 && k <= params.Params.f + 1
        ->
          let tau = local_time t in
          let tr = trip_of t (p, v, k) in
          let n = params.Params.n in
          (match kind with
          | Init -> if sender = p && tr.init_from_p = None then tr.init_from_p <- Some tau
          | Echo -> tr.n_echo <- tr.n_echo + Stamps.note tr.st ~off:0 ~n ~sender ~at:tau
          | Init2 ->
              tr.n_init2 <- tr.n_init2 + Stamps.note tr.st ~off:n ~n ~sender ~at:tau
          | Echo2 ->
              tr.n_echo2 <-
                tr.n_echo2 + Stamps.note tr.st ~off:(2 * n) ~n ~sender ~at:tau)
      | Mb _ | Initiator _ | Ia _ -> ());
  (* Schedule every phase boundary up front (the protocol is time-driven). *)
  let phi = params.Params.phi in
  let tau_now = local_time t in
  for b = 1 to (2 * params.Params.f) + 4 do
    let target = t_start +. (float_of_int b *. phi) in
    if target > tau_now then
      Engine.schedule_after engine
        ~delay:(Clock.real_of_local_duration clock (target -. tau_now))
        (fun () -> boundary t b)
  done;
  t

(* The General's initiation: broadcast (G, v, 0) at phase 0. *)
let propose t v =
  if t.id <> t.g then invalid_arg "Tps_agree.propose: not the General";
  send t Init ~p:t.id ~v ~k:0
