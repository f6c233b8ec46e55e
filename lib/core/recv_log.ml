(* Timestamped per-sender receive log.

   Initiator-Accept keeps one log per message class (support, approve,
   ready) and (General, value) key. Its blocks ask questions of the form
   "did >= k distinct senders deliver this message within the local window
   [tau - alpha, tau]?", so it suffices to remember, per sender, the most
   recent arrival time: re-sends refresh the entry, and older arrivals can
   never enlarge a suffix window's sender count. (msgd-broadcast only counts
   senders and asks no window query, so it keeps flat per-sender stamps
   instead; see [Stamps].)

   Window queries run on every arrival, so they are Initiator-Accept's hot
   path. The log is a sorted array of (time, sender) pairs — parallel flat
   float/int arrays, ascending by (time, sender) — so every query is a
   binary search: O(log m), monomorphic comparisons, no allocation. Each
   sender appears at most once, so the sender -> latest-arrival lookup is a
   linear scan of the int column (m <= n entries, allocation-free; a test
   pins a warmed note/query/decay cycle at 0 minor words) — it replaced a
   side Hashtbl whose [note] allocated an option and a bucket per arrival on
   the hottest path in the simulator. Updates (a refresh moves
   one entry towards the end; decay cuts a prefix, sanitize a suffix) are a
   scan plus one [Array.blit] over at most m entries.

   The log also implements the paper's decay rules: entries older than a
   horizon are removed, and entries with "clearly wrong" (future) timestamps
   — which only a transient fault can produce — are dropped by [sanitize]. *)

type t = {
  mutable times : float array;  (* ascending by (time, sender); size live *)
  mutable who : int array;
  mutable size : int;
}

let create () = { times = Array.make 8 0.0; who = Array.make 8 0; size = 0 }

(* Index of [sender]'s (unique) entry, or -1. A loop, not a local recursive
   function: one closing over [who] and [sender] is a closure allocated on
   every call, which is every arrival. *)
let find_sender t sender =
  let n = t.size in
  let who = t.who in
  let i = ref 0 in
  while !i < n && Array.unsafe_get who !i <> sender do
    incr i
  done;
  if !i < n then !i else -1

(* First index whose (time, sender) is >= (at, sender) lexicographically. *)
let lower_bound t ~at ~sender =
  let lo = ref 0 and hi = ref t.size in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let mt = Array.unsafe_get t.times mid in
    if mt < at || (mt = at && Array.unsafe_get t.who mid < sender) then
      lo := mid + 1
    else hi := mid
  done;
  !lo

(* First index with time >= x. Both time searches are [@inline], so a bound
   a query computes ([now -. width]) reaches them unboxed. *)
let[@inline] lower_bound_time t x =
  let lo = ref 0 and hi = ref t.size in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get t.times mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index with time > x. *)
let[@inline] upper_bound_time t x =
  let lo = ref 0 and hi = ref t.size in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get t.times mid <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let remove_at t i =
  Array.blit t.times (i + 1) t.times i (t.size - i - 1);
  Array.blit t.who (i + 1) t.who i (t.size - i - 1);
  t.size <- t.size - 1

let insert_entry t ~at ~sender =
  if t.size = Array.length t.times then begin
    let cap = 2 * t.size in
    let times = Array.make cap 0.0 and who = Array.make cap 0 in
    Array.blit t.times 0 times 0 t.size;
    Array.blit t.who 0 who 0 t.size;
    t.times <- times;
    t.who <- who
  end;
  let i = lower_bound t ~at ~sender in
  Array.blit t.times i t.times (i + 1) (t.size - i);
  Array.blit t.who i t.who (i + 1) (t.size - i);
  t.times.(i) <- at;
  t.who.(i) <- sender;
  t.size <- t.size + 1

let replace t ~sender ~at =
  (match find_sender t sender with i when i >= 0 -> remove_at t i | _ -> ());
  insert_entry t ~at ~sender

let note t ~sender ~at =
  match find_sender t sender with
  | i when i >= 0 ->
      if Array.unsafe_get t.times i < at then begin
        remove_at t i;
        insert_entry t ~at ~sender
      end
  | _ -> insert_entry t ~at ~sender

let count t = t.size

(* Senders whose latest arrival lies in [now - width, now]. *)
let count_in_window t ~now ~width =
  let hi = upper_bound_time t now in
  let lo = lower_bound_time t (now -. width) in
  if hi > lo then hi - lo else 0

(* Smallest alpha such that >= count distinct senders arrived in
   [now - alpha, now]; [None] if fewer than [count] arrivals exist at all. *)
let shortest_window t ~now ~count =
  if count <= 0 then Some 0.0
  else begin
    let hi = upper_bound_time t now in
    if hi < count then None else Some (now -. t.times.(hi - count))
  end

(* Drop entries that arrived before [horizon] — an ascending-order prefix. *)
let decay t ~horizon =
  let cut = lower_bound_time t horizon in
  if cut > 0 then begin
    Array.blit t.times cut t.times 0 (t.size - cut);
    Array.blit t.who cut t.who 0 (t.size - cut);
    t.size <- t.size - cut
  end

(* Drop entries with impossible (future) timestamps — transient-fault
   residue, a suffix of the sorted array. *)
let sanitize t ~now =
  let keep = upper_bound_time t now in
  if keep < t.size then t.size <- keep

(* Iterate live entries in ascending (time, sender) order — a canonical
   order independent of arrival interleaving; the model checker's state
   fingerprints rely on it. *)
let iter_entries t f =
  for i = 0 to t.size - 1 do
    f ~sender:t.who.(i) ~at:t.times.(i)
  done

let clear t = t.size <- 0

let is_empty t = t.size = 0

(* Fault injection: plant an arbitrary entry, bypassing the monotonicity of
   [note]. Used only by the transient-fault scrambler. *)
let corrupt t ~sender ~at = replace t ~sender ~at
