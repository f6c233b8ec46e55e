(* Sorted set of local-time stamps, kept as a flat float array.

   Backs Initiator-Accept's last(G,m) rate-limiting variable: block K asks
   "was the variable defined at time [at]?" (an existential query over the
   recorded set-times) and the cleanup block trims set-times outside a
   retention range. The naive float list forced an O(len) scan per query and
   a fresh list allocation per cleanup tick; here the stamps live in one
   ascending array, so the definedness query is an allocation-free O(log m)
   binary search and range retention is an in-place trim.

   Exactness notes (the observable semantics must match the float-list
   version bit for bit, because run digests are pinned):
   - all reads are existential, so dropping exact duplicates on insert
     changes no observable answer;
   - "exists s <= at with at - s <= expiry" holds iff it holds for the
     LARGEST s <= at (a bigger witness is a witness whenever a smaller one
     is), which is what the predecessor search checks;
   - retention keeps exactly { s | lo <= s <= hi }: a prefix cut and a
     suffix cut on the sorted array. *)

type t = { mutable ts : float array; mutable size : int }

let create () = { ts = [||]; size = 0 }

let size t = t.size
let is_empty t = t.size = 0
let clear t = t.size <- 0

(* Index of the first element >= x (insertion point), in [0, size]. *)
let lower_bound t x =
  let lo = ref 0 and hi = ref t.size in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get t.ts mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Index of the first element > x, in [0, size]. *)
let upper_bound t x =
  let lo = ref 0 and hi = ref t.size in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get t.ts mid <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let grow t =
  let cap = Array.length t.ts in
  let ncap = if cap = 0 then 8 else 2 * cap in
  let nts = Array.make ncap 0.0 in
  Array.blit t.ts 0 nts 0 t.size;
  t.ts <- nts

(* A NaN stamp is dropped, so it decays at once. Kept, it would land first
   (nothing compares below it) and every later stamp would land in front of
   it, breaking the order every query and trim relies on. *)
let add t x =
  let i = lower_bound t x in
  if not (Float.is_nan x || (i < t.size && Array.unsafe_get t.ts i = x)) then begin
    if t.size = Array.length t.ts then grow t;
    Array.blit t.ts i t.ts (i + 1) (t.size - i);
    Array.unsafe_set t.ts i x;
    t.size <- t.size + 1
  end

(* Is there a stamp s with [s <= at] and [at - s <= expiry]? Equivalently:
   does the predecessor of [at] lie within [expiry] of it? *)
let defined_at t ~at ~expiry =
  let i = upper_bound t at in
  i > 0 && at -. Array.unsafe_get t.ts (i - 1) <= expiry

(* Keep exactly the stamps in [lo, hi]. *)
let retain_range t ~lo ~hi =
  let first = lower_bound t lo in
  let last = upper_bound t hi in
  let kept = last - first in
  if kept <= 0 then t.size <- 0
  else begin
    if first > 0 then Array.blit t.ts first t.ts 0 kept;
    t.size <- kept
  end

let[@inline] oldest t = t.ts.(0)
let[@inline] newest t = t.ts.(t.size - 1)

let to_list t = Array.to_list (Array.sub t.ts 0 t.size)
