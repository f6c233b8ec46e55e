(* Protocol constants (paper §2 and §3).

   All durations derive from [d = (delta + pi) * (1 + rho)], the bound on the
   elapsed local time from a correct node sending a message until every
   correct node has received and processed it. The Delta_* cascade below is
   copied verbatim from the notation list in §3:

     tau_skew    = 6d                 bound between correct nodes' tau^G anchors
     Phi         = tau_skew + 2d      duration of one phase
     Delta_agr   = (2f + 1) * Phi     upper bound on running the agreement
     Delta_0     = 13d                min spacing of initiations (any value)
     Delta_rmv   = Delta_agr + Delta_0   decay horizon for old values
     Delta_v     = 15d + 2 Delta_rmv  min spacing of initiations (same value)
     Delta_node  = Delta_v + Delta_agr   non-faulty -> correct promotion time
     Delta_reset = 20d + 4 Delta_rmv  General quiet period after a failure
     Delta_stb   = 2 Delta_reset      stabilization time of the system *)

(* Block R's fast-path gate (Figure 1) compares [tau - tau_g] against a
   slack budget. The figure as written uses 4d, but [IA-1D] guarantees the
   General's value reaches every correct node within 5d of the earliest
   anchor, so the 4d gate is one d tighter than the proof needs. The knob
   keeps both behaviours co-resident so the model checker and the fuzz
   corpora can compare them:
     Legacy — Figure 1 verbatim: gate at 4d;
     Widen  — gate at 5d (the [IA-1D] slack). *)
type r_slack = Legacy | Widen

let default_r_slack = Widen

let r_slack_to_string = function
  | Legacy -> "legacy"
  | Widen -> "widen"

let r_slack_of_string = function
  | "legacy" -> Some Legacy
  | "widen" -> Some Widen
  | _ -> None

type t = {
  n : int;  (* number of nodes *)
  f : int;  (* bound on concurrent permanent faults; requires n > 3f *)
  delta : float;  (* max message delay while the network is correct *)
  pi : float;  (* max processing time *)
  rho : float;  (* clock drift bound *)
  d : float;
  tau_skew : float;
  phi : float;
  delta_agr : float;
  delta_0 : float;
  delta_rmv : float;
  delta_v : float;
  delta_node : float;
  delta_reset : float;
  delta_stb : float;
  r_slack : r_slack;  (* block R gate variant; see above *)
}

(* Every check is written so that NaN fails it. *)
let make ~n ~f ~delta ~pi ~rho =
  if n <= 0 then invalid_arg "Params.make: n must be positive";
  if f < 0 then invalid_arg "Params.make: f must be non-negative";
  if not (delta > 0.0) then invalid_arg "Params.make: delta must be positive";
  if not (pi >= 0.0) then invalid_arg "Params.make: pi must be non-negative";
  if not (rho >= 0.0 && rho < 1.0) then invalid_arg "Params.make: rho out of [0,1)";
  let d = (delta +. pi) *. (1.0 +. rho) in
  let tau_skew = 6.0 *. d in
  let phi = tau_skew +. (2.0 *. d) in
  let delta_agr = float_of_int ((2 * f) + 1) *. phi in
  let delta_0 = 13.0 *. d in
  let delta_rmv = delta_agr +. delta_0 in
  let delta_v = (15.0 *. d) +. (2.0 *. delta_rmv) in
  let delta_node = delta_v +. delta_agr in
  let delta_reset = (20.0 *. d) +. (4.0 *. delta_rmv) in
  let delta_stb = 2.0 *. delta_reset in
  (* the largest derived constant: the others are finite when it is *)
  if not (Float.is_finite delta_stb) then
    invalid_arg "Params.make: delta and pi too large, Delta_stb is not finite";
  {
    n;
    f;
    delta;
    pi;
    rho;
    d;
    tau_skew;
    phi;
    delta_agr;
    delta_0;
    delta_rmv;
    delta_v;
    delta_node;
    delta_reset;
    delta_stb;
    r_slack = default_r_slack;
  }

let with_r_slack t r_slack = { t with r_slack }

(* Largest f satisfying n > 3f. *)
let max_faults n = (n - 1) / 3

let default ?f ?(delta = 0.001) ?(pi = 0.0001) ?(rho = 1e-4)
    ?(r_slack = default_r_slack) n =
  let f = match f with Some f -> f | None -> max_faults n in
  with_r_slack (make ~n ~f ~delta ~pi ~rho) r_slack

(* Block R's fast-path deadline: [tau - tau_g <= r_gate t] admits the round-0
   decide. *)
let r_gate t = (match t.r_slack with Widen -> 5.0 | Legacy -> 4.0) *. t.d

(* Effective delay bound over a lossy link masked by the reliable transport
   (lib/transport). A frame lost with probability [p] is retransmitted on an
   exponential backoff schedule rto, 2·rto, 4·rto, …; after [retries]
   retransmissions the last attempt leaves the sender at
   rto + 2·rto + … + 2^(retries-1)·rto = rto·(2^retries - 1) past the
   original send, and arrives at most [delta] later. So once the network is
   otherwise coherent, a payload the transport does deliver is delivered
   within delta + rto·(2^retries - 1); instantiating the paper's cascade at
   that bound keeps every timeout sound over the lossy link. With p = 0 the
   transport never retransmits on the success path and delta stands. *)
let delta_eff ~delta ~p ~rto ~retries =
  if p <= 0.0 then delta
  else begin
    if rto <= 0.0 then invalid_arg "Params.delta_eff: rto must be positive";
    if retries < 0 then invalid_arg "Params.delta_eff: retries must be >= 0";
    delta +. (rto *. (ldexp 1.0 retries -. 1.0))
  end

let validate t =
  if t.n <= 3 * t.f then
    Error (Printf.sprintf "resilience violated: n = %d <= 3f = %d" t.n (3 * t.f))
  else Ok ()

(* Quorum thresholds used throughout the primitives. *)
let quorum t = t.n - t.f
let weak_quorum t = t.n - (2 * t.f)

let pp ppf t =
  Fmt.pf ppf
    "n=%d f=%d delta=%g pi=%g rho=%g d=%g Phi=%g Dagr=%g D0=%g Drmv=%g Dv=%g Dnode=%g Dreset=%g Dstb=%g R=%s"
    t.n t.f t.delta t.pi t.rho t.d t.phi t.delta_agr t.delta_0 t.delta_rmv
    t.delta_v t.delta_node t.delta_reset t.delta_stb
    (r_slack_to_string t.r_slack)
