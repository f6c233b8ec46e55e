(* Monotonic wall clock in nanoseconds (CLOCK_MONOTONIC). *)

external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

(* Minor-heap words allocated so far by this domain, as an int so span
   bookkeeping stays allocation-free. *)
let minor_words () = int_of_float (Gc.minor_words ())
