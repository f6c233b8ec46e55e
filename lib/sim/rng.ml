(* Deterministic splittable PRNG.

   The generator is splitmix64 (Steele, Lea & Flood, OOPSLA'14): a 64-bit
   counter advanced by a Weyl constant and finalized with an avalanching mix.
   It is fast, has a guaranteed period of 2^64, and — crucially for the
   simulator — supports cheap *splitting*, so every component (network delays,
   each adversary, the state scrambler) owns an independent stream derived
   from one root seed. Identical seeds therefore yield identical runs. *)

(* The 64-bit counter lives in an 8-byte [Bytes.t] rather than a boxed
   [int64] record field: [Bytes.get_int64_ne]/[set_int64_ne] compile to raw
   unboxed loads/stores, so advancing the state allocates nothing — with a
   [mutable state : int64] field every draw boxed a fresh Int64, and the
   network draws five samples per send on the hot path. The arithmetic is
   bit-for-bit unchanged; every digest pin stays put. *)
type t = { state : Bytes.t }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline always] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline always] next_int64 t =
  let s = Int64.add (Bytes.get_int64_ne t.state 0) golden_gamma in
  Bytes.set_int64_ne t.state 0 s;
  mix64 s

let of_int64 s =
  let state = Bytes.create 8 in
  Bytes.set_int64_ne state 0 s;
  { state }

let create seed = of_int64 (mix64 (Int64.of_int seed))

let split t = of_int64 (mix64 (next_int64 t))

let copy t = of_int64 (Bytes.get_int64_ne t.state 0)

(* A draw adds one Weyl constant to the counter before mixing, so [k]
   draws add [k * golden_gamma] (mod 2^64) whatever they return. *)
let skip t k =
  if k < 0 then invalid_arg "Rng.skip: negative count";
  let s = Bytes.get_int64_ne t.state 0 in
  Bytes.set_int64_ne t.state 0 (Int64.add s (Int64.mul (Int64.of_int k) golden_gamma))

let[@inline always] bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let[@inline always] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let[@inline always] float t bound =
  if bound < 0.0 then invalid_arg "Rng.float: bound must be non-negative";
  let u = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (u /. 9007199254740992.0 (* 2^53 *))

let[@inline always] float_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.float_in_range: hi < lo";
  lo +. float t (hi -. lo)

let[@inline always] bool t = Int64.logand (next_int64 t) 1L = 1L

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let subset t ~k arr =
  if k < 0 || k > Array.length arr then invalid_arg "Rng.subset";
  Array.sub (shuffle t arr) 0 k
