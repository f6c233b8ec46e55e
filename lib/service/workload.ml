(* Service-mode workload descriptions.

   A workload is the fully-data recipe for one recurrent-agreement service
   run: the open-loop arrival process, the admission-control knobs (queue
   bound, load watermarks), the client retry policy, and the optional pulse
   layer riding on the same cluster. Like Spec, it is plain data with a
   hand-rolled JSON codec over Ssba_sim.Json, so a service spec round-trips
   losslessly and replays byte-for-byte. *)

module J = Ssba_sim.Json

type arrivals =
  | Poisson of { rate : float }  (* open-loop, exponential gaps *)
  | Bursty of { rate : float; burst : int; every : float }
      (* Poisson base load plus a burst of [burst] simultaneous arrivals
         every [every] seconds — the overload trigger *)

type t = {
  arrivals : arrivals;
  start_at : float;  (* first arrival no earlier than this *)
  stop_at : float;  (* arrivals cease; the run then drains to the horizon *)
  channels : int;  (* concurrent-invocation channels (footnote 9) *)
  queue_cap : int;  (* bounded retry queue; 0 disables parking entirely *)
  high_watermark : float;  (* live/capacity fraction entering degraded mode *)
  low_watermark : float;  (* live/capacity fraction leaving degraded mode *)
  retry_max : int;  (* attempts per job (first try included) *)
  retry_base : float;  (* backoff base, seconds; floored at Delta_0 at runtime *)
  pulse_cycles : int;  (* >0 runs a pulse layer sized for that many cycles *)
}

let default =
  {
    arrivals = Poisson { rate = 40.0 };
    start_at = 0.1;
    stop_at = 3.0;
    channels = 8;
    queue_cap = 64;
    high_watermark = 0.75;
    low_watermark = 0.5;
    retry_max = 6;
    retry_base = 0.02;
    pulse_cycles = 0;
  }

let rate = function Poisson { rate } | Bursty { rate; _ } -> rate

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if rate t.arrivals <= 0.0 then err "arrival rate must be positive"
  else if
    match t.arrivals with
    | Bursty { burst; every; _ } -> burst < 1 || every <= 0.0
    | Poisson _ -> false
  then err "bursty arrivals need burst >= 1 and every > 0"
  else if t.start_at < 0.0 || t.stop_at <= t.start_at then
    err "need 0 <= start_at < stop_at"
  else if t.channels < 1 then err "channels must be >= 1"
  else if t.queue_cap < 0 then err "queue_cap must be >= 0"
  else if
    t.low_watermark <= 0.0
    || t.low_watermark > t.high_watermark
    || t.high_watermark > 1.0
  then err "need 0 < low_watermark <= high_watermark <= 1"
  else if t.retry_max < 1 then err "retry_max must be >= 1"
  else if t.retry_base <= 0.0 then err "retry_base must be positive"
  else if t.pulse_cycles < 0 then err "pulse_cycles must be >= 0"
  else Ok ()

(* ---------- JSON codec ---------- *)

open J.Read

let num x = J.Num x
let int x = J.Num (float_of_int x)

let arrivals_to_json = function
  | Poisson { rate } -> J.Obj [ ("model", J.Str "poisson"); ("rate", num rate) ]
  | Bursty { rate; burst; every } ->
      J.Obj
        [
          ("model", J.Str "bursty");
          ("rate", num rate);
          ("burst", int burst);
          ("every", num every);
        ]

let arrivals_of_json j =
  match get_str "model" j with
  | "poisson" -> Poisson { rate = get_float "rate" j }
  | "bursty" ->
      Bursty
        {
          rate = get_float "rate" j;
          burst = get_int "burst" j;
          every = get_float "every" j;
        }
  | m -> fail "unknown arrival model %S" m

let to_json t =
  J.Obj
    [
      ("arrivals", arrivals_to_json t.arrivals);
      ("start_at", num t.start_at);
      ("stop_at", num t.stop_at);
      ("channels", int t.channels);
      ("queue_cap", int t.queue_cap);
      ("high_watermark", num t.high_watermark);
      ("low_watermark", num t.low_watermark);
      ("retry_max", int t.retry_max);
      ("retry_base", num t.retry_base);
      ("pulse_cycles", int t.pulse_cycles);
    ]

let of_json j =
  try
    Ok
      {
        arrivals = arrivals_of_json (get_field "arrivals" j);
        start_at = get_float "start_at" j;
        stop_at = get_float "stop_at" j;
        channels = get_int "channels" j;
        queue_cap = get_int "queue_cap" j;
        high_watermark = get_float "high_watermark" j;
        low_watermark = get_float "low_watermark" j;
        retry_max = get_int "retry_max" j;
        retry_base = get_float "retry_base" j;
        pulse_cycles = get_int "pulse_cycles" j;
      }
  with Decode msg -> Error msg

let pp ppf t =
  Fmt.pf ppf "%s(rate=%g) [%g,%g) ch=%d q<=%d wm=%g/%g retry=%dx%g pulses=%d"
    (match t.arrivals with Poisson _ -> "poisson" | Bursty _ -> "bursty")
    (rate t.arrivals) t.start_at t.stop_at t.channels t.queue_cap
    t.high_watermark t.low_watermark t.retry_max t.retry_base t.pulse_cycles
