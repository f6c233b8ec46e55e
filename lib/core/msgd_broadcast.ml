(* The msgd-broadcast primitive (paper Figure 3, §5).

   A message-driven Reliable Broadcast in the style of Toueg, Perry &
   Srikanth's authenticated-broadcast simulation. One instance runs per
   (node, agreement instance); within it, state is kept per broadcast triplet
   (p, m, k) — broadcaster, value, round tag.

   The crucial difference from the original synchronous primitive: round
   deadlines [tau_g + (2k + c) * Phi] are upper bounds only. Conditions are
   re-evaluated on every arrival, so when the network is fast the primitive
   completes in a few d rather than a few Phi (experiment E3 measures this).

   Blocks, transcribed from the figure (executed only once the anchor tau_g
   is defined; messages are logged regardless and re-evaluated when the
   anchor appears):
     V  — the broadcaster p sends (init, p, m, k) to all;
     W  — by tau_g + 2k*Phi: init received from p itself => send echo;
     X  — by tau_g + (2k+1)*Phi: n-2f echoes => send init'; n-f => accept;
     Y  — by tau_g + (2k+2)*Phi: n-2f init' => p joins broadcasters;
          n-f init' => send echo';
     Z  — untimed: n-2f echo' => relay echo'; n-f echo' => accept (once);
     cleanup — decay anything older than (2f+3)*Phi.

   Every condition counts distinct senders; none asks when they arrived.
   So a triplet keeps its echo, init' and echo' arrivals as per-sender
   stamps ([Stamps]) in one flat array of 3n slots with three counts beside
   it, and the broadcasters set is an n-slot stamp array with a count: an
   arrival is one slot read and write, a quorum test reads a count, block
   Y's membership test reads a slot, and a decay is one pass per non-empty
   segment. Senders and broadcasters outside [0, n) hold no slot: the
   network never delivers from such a sender, and such a broadcaster never
   joins the set. *)

open Types

(* [tv]/[tk] repeat the triplet's value and round tag from its key, so the
   per-broadcaster index can match a trip without its key. [st] is three
   stamp segments of n slots, echo | init' | echo', whose distinct-sender
   counts are [n_echo], [n_init2] and [n_echo2], then one slot for the
   trip's last activity: a float field of the record would box a fresh
   float on every arrival. *)
type trip = {
  tv : value;
  tk : int;
  mutable init_from_p : float option;  (* arrival of (init,...) actually from p *)
  st : float array;
  mutable n_echo : int;
  mutable n_init2 : int;
  mutable n_echo2 : int;
  mutable sent_echo : bool;
  mutable sent_init2 : bool;
  mutable sent_echo2 : bool;
  mutable accepted_at : float option;
}

type t = {
  g : general;
  ctx : ctx;
  n : int;
  trips : (node_id * value * int, trip) Hashtbl.t;
      (* the only structure that is ever iterated: replay order (and so the
         order of the sends it triggers), cleanup and fingerprints all
         follow it *)
  by_p : trip list array;
      (* the arrival path's index: [by_p.(p)] holds exactly the trips of
         [trips] whose broadcaster is [p], for [p] in [0, n). A delivery
         scans the handful of (v, k) pairs one broadcaster has in flight
         instead of hashing a fresh key tuple; an out-of-range [p] (only
         Byzantine garbage) goes through [trips]. Kept in step wherever
         trips are added or removed. *)
  broadcasters : float array;
      (* node -> local time added, n stamp slots; same decay rules *)
  mutable n_broadcasters : int;
  mutable tau_g : float option;
  mutable on_accept : p:node_id -> v:value -> k:int -> unit;
  mutable on_broadcaster : node_id -> unit;
}

let create ~ctx ~g =
  let n = ctx.params.Params.n in
  {
    g;
    ctx;
    n;
    trips = Hashtbl.create 8;
    by_p = Array.make n [];
    broadcasters = Array.make n Float.nan;
    n_broadcasters = 0;
    tau_g = None;
    on_accept = (fun ~p:_ ~v:_ ~k:_ -> ());
    on_broadcaster = (fun _ -> ());
  }

let set_on_accept t f = t.on_accept <- f
let set_on_broadcaster t f = t.on_broadcaster <- f

let now t = t.ctx.local_time ()
let prm t = t.ctx.params

let indexed t p = p >= 0 && p < t.n

(* The trip's last activity, in the slot after its three segments. *)
let last_activity t tr = tr.st.(3 * t.n)
let set_last_activity t tr at = tr.st.(3 * t.n) <- at

let new_trip t ((p, v, k) as key) =
  let tr =
    {
      tv = v;
      tk = k;
      init_from_p = None;
      st = Array.make ((3 * t.n) + 1) Float.nan;
      n_echo = 0;
      n_init2 = 0;
      n_echo2 = 0;
      sent_echo = false;
      sent_init2 = false;
      sent_echo2 = false;
      accepted_at = None;
    }
  in
  set_last_activity t tr (now t);
  Hashtbl.replace t.trips key tr;
  if indexed t p then t.by_p.(p) <- tr :: t.by_p.(p);
  tr

let trip_of t key =
  match Hashtbl.find_opt t.trips key with
  | Some tr -> tr
  | None -> new_trip t key

let rec scan_index t ~p ~v ~k = function
  | [] -> new_trip t (p, v, k)
  | tr :: rest ->
      if tr.tk = k && (tr.tv == v || String.equal tr.tv v) then tr
      else scan_index t ~p ~v ~k rest

(* The arrival path: [p]/[v]/[k] arrive unpacked, so a hit in the
   broadcaster's index allocates nothing. *)
let trip_of_parts t ~p ~v ~k =
  if indexed t p then scan_index t ~p ~v ~k t.by_p.(p) else trip_of t (p, v, k)

(* Drop doomed trips from the table and from their broadcaster's index. *)
let remove_trips t doomed =
  List.iter
    (fun (((p, _, _) as key), tr) ->
      Hashtbl.remove t.trips key;
      if indexed t p then t.by_p.(p) <- List.filter (fun x -> x != tr) t.by_p.(p))
    doomed

let broadcaster_count t = t.n_broadcasters

let broadcasters t =
  List.filter
    (fun p -> Stamps.mem t.broadcasters ~off:0 ~n:t.n ~sender:p)
    (List.init t.n Fun.id)

(* Drop the stamps before [lo] or after [hi] from each non-empty segment. *)
let prune_trip t tr ~lo ~hi =
  let n = t.n in
  if tr.n_echo > 0 then tr.n_echo <- tr.n_echo - Stamps.prune tr.st ~off:0 ~n ~lo ~hi;
  if tr.n_init2 > 0 then
    tr.n_init2 <- tr.n_init2 - Stamps.prune tr.st ~off:n ~n ~lo ~hi;
  if tr.n_echo2 > 0 then
    tr.n_echo2 <- tr.n_echo2 - Stamps.prune tr.st ~off:(2 * n) ~n ~lo ~hi

let prune_broadcasters t ~lo ~hi =
  if t.n_broadcasters > 0 then
    t.n_broadcasters <-
      t.n_broadcasters - Stamps.prune t.broadcasters ~off:0 ~n:t.n ~lo ~hi

let send t kind ~p ~v ~k = t.ctx.send_all (Mb { kind; p; g = t.g; v; k })

let do_accept t ~tau ~p tr =
  let v = tr.tv and k = tr.tk in
  tr.accepted_at <- Some tau;
  t.ctx.trace (Ssba_sim.Trace.Mb_accept { g = t.g; p; v; k });
  t.on_accept ~p ~v ~k

(* Evaluate blocks W–Z for one triplet; no-op until the anchor is known.
   [tau] is the caller's local time — threaded in so the arrival path reads
   the clock exactly once. *)
let eval t ~tau ~p tr =
  match t.tau_g with
  | None -> ()
  | Some tg ->
      let pm = prm t in
      let phi = pm.Params.phi in
      let n_f = Params.quorum pm in
      let n_2f = Params.weak_quorum pm in
      let v = tr.tv and k = tr.tk in
      (* Deadlines tau_g + (2k + c) * Phi for c = 0, 1, 2. Each keeps the
         exact arithmetic shape [tg +. (float (2k + c) *. phi)] — the
         comparisons below sit on digest-pinned boundaries. *)
      let k2 = 2 * k in
      let deadline0 = tg +. (float_of_int k2 *. phi) in
      let deadline1 = tg +. (float_of_int (k2 + 1) *. phi) in
      let deadline2 = tg +. (float_of_int (k2 + 2) *. phi) in
      (* W *)
      if tau <= deadline0 && tr.init_from_p <> None && not tr.sent_echo then begin
        tr.sent_echo <- true;
        send t Echo ~p ~v ~k
      end;
      (* X *)
      if tau <= deadline1 then begin
        if tr.n_echo >= n_2f && not tr.sent_init2 then begin
          tr.sent_init2 <- true;
          send t Init2 ~p ~v ~k
        end;
        if tr.n_echo >= n_f && tr.accepted_at = None then
          do_accept t ~tau ~p tr
      end;
      (* Y *)
      if tau <= deadline2 then begin
        (* [note] fills an absent in-range slot and returns 1; an
           out-of-range [p] holds no slot and never joins. *)
        if
          tr.n_init2 >= n_2f
          && (not (Stamps.mem t.broadcasters ~off:0 ~n:t.n ~sender:p))
          && Stamps.note t.broadcasters ~off:0 ~n:t.n ~sender:p ~at:tau = 1
        then begin
          t.n_broadcasters <- t.n_broadcasters + 1;
          t.ctx.trace
            (Ssba_sim.Trace.Mb_broadcaster
               { g = t.g; p; total = broadcaster_count t });
          t.on_broadcaster p
        end;
        if tr.n_init2 >= n_f && not tr.sent_echo2 then begin
          tr.sent_echo2 <- true;
          send t Echo2 ~p ~v ~k
        end
      end;
      (* Z *)
      if tr.n_echo2 >= n_2f && not tr.sent_echo2 then begin
        tr.sent_echo2 <- true;
        send t Echo2 ~p ~v ~k
      end;
      if tr.n_echo2 >= n_f && tr.accepted_at = None then
        do_accept t ~tau ~p tr

(* Block V: this node broadcasts (p = self). *)
let broadcast t ~v ~k = send t Init ~p:t.ctx.self ~v ~k

(* Anchor management: set on I-accept, then replay all logged triplets.

   The anchor is the session key: everything logged before [tau_g - d]
   belongs to an earlier (G, tau_g') session and is purged before the
   replay. Messages of *this* session cannot arrive earlier than the
   fastest accept (>= tau_g + 3d even under maximal anchor skew), while
   stragglers of the previous session — whose tail can outlive the
   3d-post-return reset and repopulate trips while no anchor is defined —
   are at least 2d older than any anchor a fresh initiation can establish
   (block K's last(G) guard separates initiations by 7d; the old session's
   last correct sends happen within ~4d of its accept). Without the purge,
   the untimed block Z counts those stragglers under the new anchor and
   re-accepts the previous session's value: the [IA-4]/agreement split the
   2027/133 churn repro pinned. *)
let set_anchor t tau_g =
  t.tau_g <- Some tau_g;
  let horizon = tau_g -. (prm t).Params.d in
  let doomed = ref [] in
  Hashtbl.iter
    (fun key tr ->
      prune_trip t tr ~lo:horizon ~hi:Float.infinity;
      (match tr.init_from_p with
      | Some at when at < horizon -> tr.init_from_p <- None
      | Some _ | None -> ());
      (match tr.accepted_at with
      | Some at when at < horizon -> tr.accepted_at <- None
      | Some _ | None -> ());
      if
        tr.n_echo = 0 && tr.n_init2 = 0 && tr.n_echo2 = 0
        && tr.init_from_p = None && tr.accepted_at = None
      then doomed := (key, tr) :: !doomed)
    t.trips;
  remove_trips t !doomed;
  prune_broadcasters t ~lo:horizon ~hi:Float.infinity;
  t.ctx.trace (Ssba_sim.Trace.Anchor_set { g = t.g; tau_g });
  let tau = now t in
  Hashtbl.iter (fun (p, _, _) tr -> eval t ~tau ~p tr) t.trips

let anchor t = t.tau_g

let handle_message t ~sender ~kind ~p ~v ~k =
  (* Round tags outside [1, f+1] cannot be used by any correct node (blocks R
     and S only broadcast with k in that range); drop them so Byzantine spam
     cannot inflate memory. *)
  if k >= 1 && k <= (prm t).Params.f + 1 then begin
    let tau = now t in
    let n = t.n in
    let tr = trip_of_parts t ~p ~v ~k in
    set_last_activity t tr tau;
    (match kind with
    | Init -> if sender = p && tr.init_from_p = None then tr.init_from_p <- Some tau
    | Echo -> tr.n_echo <- tr.n_echo + Stamps.note tr.st ~off:0 ~n ~sender ~at:tau
    | Init2 -> tr.n_init2 <- tr.n_init2 + Stamps.note tr.st ~off:n ~n ~sender ~at:tau
    | Echo2 ->
        tr.n_echo2 <- tr.n_echo2 + Stamps.note tr.st ~off:(2 * n) ~n ~sender ~at:tau);
    eval t ~tau ~p tr
  end

(* Figure 3's cleanup: decay anything older than (2f+3) * Phi. *)
let cleanup t =
  let tau = now t in
  let pm = prm t in
  let horizon = tau -. (float_of_int ((2 * pm.Params.f) + 3) *. pm.Params.phi) in
  (* After the post-return reset the table is usually empty: skip it
     without walking its buckets. *)
  if Hashtbl.length t.trips > 0 then begin
    let doomed = ref [] in
    Hashtbl.iter
      (fun key tr ->
        prune_trip t tr ~lo:horizon ~hi:tau;
        (match tr.init_from_p with
        | Some at when at > tau || at < horizon -> tr.init_from_p <- None
        | Some _ | None -> ());
        (match tr.accepted_at with
        | Some at when at > tau -> tr.accepted_at <- None
        | Some _ | None -> ());
        let active = last_activity t tr in
        if active < horizon || active > tau then
          doomed := (key, tr) :: !doomed)
      t.trips;
    remove_trips t !doomed
  end;
  prune_broadcasters t ~lo:horizon ~hi:tau;
  match t.tau_g with
  | Some tg when tg > tau -> t.tau_g <- None  (* corrupt future anchor *)
  | Some _ | None -> ()

let reset t =
  Hashtbl.reset t.trips;
  Array.fill t.by_p 0 (Array.length t.by_p) [];
  Stamps.clear t.broadcasters ~off:0 ~n:t.n;
  t.n_broadcasters <- 0;
  t.tau_g <- None

(* Indistinguishable from a freshly created instance: eligible for session
   garbage collection. *)
let quiescent t =
  Hashtbl.length t.trips = 0
  && t.n_broadcasters = 0
  && t.tau_g = None

(* Canonical state fingerprint for the model checker's visited set: trips in
   sorted key order, each stamp segment in ascending (time, sender) order
   (the order the sorted receive logs it replaced printed, so the bytes are
   the same), floats printed exactly. *)
let fingerprint buf t =
  let add = Buffer.add_string and int = Ssba_sim.Fp_text.int in
  let float = Ssba_sim.Fp_text.float in
  let fopt = function None -> add buf "-" | Some x -> float buf x in
  let log a ~off =
    Stamps.iter a ~off ~n:t.n (fun ~sender ~at ->
        int buf sender; add buf "@"; float buf at; add buf ",")
  in
  add buf "mb{g="; int buf t.g; add buf ";tg="; fopt t.tau_g; add buf ";";
  Buffer.add_string buf "bc=";
  log t.broadcasters ~off:0;
  Buffer.add_char buf ';';
  let trips =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.trips [])
  in
  List.iter
    (fun ((p, v, k), tr) ->
      add buf "t:"; int buf p; add buf "/"; add buf v; add buf "/"; int buf k;
      add buf "=ip"; fopt tr.init_from_p; add buf "|e";
      log tr.st ~off:0;
      Buffer.add_string buf "|i2";
      log tr.st ~off:t.n;
      Buffer.add_string buf "|e2";
      log tr.st ~off:(2 * t.n);
      add buf "|"; add buf (string_of_bool tr.sent_echo);
      add buf (string_of_bool tr.sent_init2); add buf (string_of_bool tr.sent_echo2);
      add buf "|a"; fopt tr.accepted_at; add buf "|la"; float buf (last_activity t tr);
      add buf ";")
    trips;
  Buffer.add_char buf '}'

(* Transient-fault injection. *)
let scramble rng ~values t =
  let tau = now t in
  let pm = prm t in
  let n = pm.Params.n in
  let span = 3.0 *. float_of_int ((2 * pm.Params.f) + 3) *. pm.Params.phi in
  let rtime () = tau +. Ssba_sim.Rng.float_in_range rng ~lo:(-.span) ~hi:pm.Params.phi in
  let ntrips = Ssba_sim.Rng.int rng 6 in
  for _ = 1 to ntrips do
    let p = Ssba_sim.Rng.int rng n in
    let v = Ssba_sim.Rng.pick_list rng values in
    let k = 1 + Ssba_sim.Rng.int rng (pm.Params.f + 1) in
    let tr = trip_of t (p, v, k) in
    if Ssba_sim.Rng.bool rng then tr.init_from_p <- Some (rtime ());
    for _ = 1 to Ssba_sim.Rng.int rng (n + 1) do
      tr.n_echo <-
        tr.n_echo
        + Stamps.put tr.st ~off:0 ~n ~sender:(Ssba_sim.Rng.int rng n) ~at:(rtime ())
    done;
    for _ = 1 to Ssba_sim.Rng.int rng (n + 1) do
      tr.n_init2 <-
        tr.n_init2
        + Stamps.put tr.st ~off:n ~n ~sender:(Ssba_sim.Rng.int rng n) ~at:(rtime ())
    done;
    for _ = 1 to Ssba_sim.Rng.int rng (n + 1) do
      tr.n_echo2 <-
        tr.n_echo2
        + Stamps.put tr.st ~off:(2 * n) ~n ~sender:(Ssba_sim.Rng.int rng n)
            ~at:(rtime ())
    done;
    tr.sent_echo <- Ssba_sim.Rng.bool rng;
    tr.sent_init2 <- Ssba_sim.Rng.bool rng;
    tr.sent_echo2 <- Ssba_sim.Rng.bool rng;
    if Ssba_sim.Rng.bool rng then tr.accepted_at <- Some (rtime ())
  done;
  for _ = 1 to Ssba_sim.Rng.int rng (pm.Params.f + 1) do
    t.n_broadcasters <-
      t.n_broadcasters
      + Stamps.put t.broadcasters ~off:0 ~n ~sender:(Ssba_sim.Rng.int rng n)
          ~at:(rtime ())
  done;
  if Ssba_sim.Rng.bool rng then t.tau_g <- Some (rtime ())
