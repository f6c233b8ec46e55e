(* Order statistics over timing samples.

   Percentiles are nearest-rank: the value at 1-based rank ceil(q * n) of
   the sorted samples. A tail percentile is only meaningful when enough
   samples lie beyond it, so [tail] refuses to emit one with fewer than
   [min_beyond] samples above its rank. *)

let min_beyond = 10

(* ceil(q * n), guarded against products like 0.95 * 200 landing a hair
   above an integer. *)
let rank ~q n =
  let r = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  max 1 (min n r)

let beyond ~q n = n - rank ~q n

let sorted samples =
  let s = Array.copy samples in
  Array.sort Float.compare s;
  s

let percentile q samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  (sorted samples).(rank ~q n - 1)

let median samples = percentile 0.5 samples

let tail ~q samples =
  let n = Array.length samples in
  if n = 0 || beyond ~q n < min_beyond then None else Some (percentile q samples)

(* A timing summary always carries its sample count. *)
type summary = { samples : int; p50 : float; p95 : float option }

let summarize samples =
  { samples = Array.length samples; p50 = median samples; p95 = tail ~q:0.95 samples }
