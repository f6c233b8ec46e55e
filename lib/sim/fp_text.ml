(* Exact number text for state fingerprints, written straight into a buffer.

   [float] appends the bytes [Printf.bprintf buf "%h" x] appends, and [int]
   those of ["%d"], so fingerprints keep their text (and every digest of it)
   without going through the format interpreter. The float text follows the
   runtime's hexstring_of_float: sign by sign bit, [infinity]/[nan] for an
   all-ones exponent, otherwise a leading 0 (zero, subnormal) or 1 digit,
   the 52-bit mantissa in hex with trailing zero digits dropped, and the
   unbiased exponent as [p%+d] (-1022 for subnormals, 0 for zero). No
   mutable state: domains may fingerprint in parallel. *)

let hex_digits = "0123456789abcdef"

(* Digits of [n <= 0], most significant first: working on the non-positive
   side makes [min_int] no special case. *)
let rec digits buf n =
  if n <= -10 then digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    digits buf i
  end
  else digits buf (-i)

let mantissa_mask = (1 lsl 52) - 1

let float buf x =
  let bits = Int64.bits_of_float x in
  if Int64.compare bits 0L < 0 then Buffer.add_char buf '-';
  let e = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let m = Int64.to_int bits land mantissa_mask in
  if e = 0x7ff then Buffer.add_string buf (if m = 0 then "infinity" else "nan")
  else begin
    Buffer.add_string buf (if e = 0 then "0x0" else "0x1");
    if m <> 0 then begin
      Buffer.add_char buf '.';
      let m = ref m in
      while !m <> 0 do
        Buffer.add_char buf hex_digits.[!m lsr 48];
        m := (!m lsl 4) land mantissa_mask
      done
    end;
    Buffer.add_char buf 'p';
    let exp = if e <> 0 then e - 1023 else if m = 0 then 0 else -1022 in
    if exp >= 0 then Buffer.add_char buf '+';
    int buf exp
  end
