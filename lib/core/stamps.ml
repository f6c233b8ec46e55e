(* Per-sender arrival stamps in flat float segments.

   msgd-broadcast (Figure 3) only asks of a message class "how many distinct
   senders have sent it", and its cleanup drops arrivals older than a
   horizon; no window query ever reads the times. So a class is a segment of
   [n] consecutive slots of a [float array], one slot per sender in [0, n):
   slot [off + sender] holds that sender's latest arrival, and nan means
   absent. Several segments share one array (a triplet keeps echo, init'
   and echo' side by side in 3n slots).

   Every operation is a slot read and write, except [prune] (one pass over
   the segment) and [iter] (repeated selection). None allocates. The
   distinct-sender count of a segment is kept by the caller: [note] and
   [put] return 1 when a slot goes from absent to present, [prune] the
   number of slots it empties. A sender outside [0, n) and a NaN stamp are
   ignored, so a count can never disagree with its slots. *)

let[@inline] present (x : float) = x = x

let[@inline] in_range ~n sender = sender >= 0 && sender < n

(* Keep the per-sender maximum: a replayed older arrival never rewinds a
   slot. *)
let[@inline] note a ~off ~n ~sender ~at =
  if in_range ~n sender && present at then begin
    let i = off + sender in
    let prev = Array.unsafe_get a i in
    if not (present prev) then begin
      Array.unsafe_set a i at;
      1
    end
    else begin
      if prev < at then Array.unsafe_set a i at;
      0
    end
  end
  else 0

let put a ~off ~n ~sender ~at =
  if in_range ~n sender && present at then begin
    let i = off + sender in
    let prev = Array.unsafe_get a i in
    Array.unsafe_set a i at;
    if present prev then 0 else 1
  end
  else 0

let[@inline] mem a ~off ~n ~sender =
  in_range ~n sender && present (Array.unsafe_get a (off + sender))

(* Empty every slot stamped before [lo] or after [hi]: the entries a decay
   at [lo] and a sanitize at [hi] remove. *)
let prune a ~off ~n ~lo ~hi =
  let dropped = ref 0 in
  for i = off to off + n - 1 do
    let x = Array.unsafe_get a i in
    if x < lo || x > hi then begin
      Array.unsafe_set a i Float.nan;
      incr dropped
    end
  done;
  !dropped

let clear a ~off ~n = Array.fill a off n Float.nan

(* Ascending (time, sender) order by repeated selection: each round emits
   the least present entry above the last one emitted. O(n) per entry, for
   the model checker's fingerprints only. *)
let iter a ~off ~n f =
  let last_at = ref Float.neg_infinity and last_sender = ref (-1) in
  let more = ref true in
  while !more do
    let best = ref (-1) and best_at = ref Float.nan in
    for s = 0 to n - 1 do
      let x = Array.unsafe_get a (off + s) in
      if
        (x > !last_at || (x = !last_at && s > !last_sender))
        && (!best < 0 || x < !best_at)
      then begin
        best := s;
        best_at := x
      end
    done;
    if !best < 0 then more := false
    else begin
      f ~sender:!best ~at:!best_at;
      last_at := !best_at;
      last_sender := !best
    end
  done
