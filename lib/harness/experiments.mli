(** The experiment suite (DESIGN.md §4 / EXPERIMENTS.md): one entry per
    reproduced table or figure. Each prints its table to stdout; every sweep
    is a constant of its experiment, and all runs are deterministic in their
    seeds. *)

type experiment = {
  name : string;  (** ["e1"] … ["e13"] *)
  doc : string;  (** one line, listed by [ssba-experiments] *)
  run : unit -> unit;  (** prints the table *)
}

(** E1 through E13, in order. *)
val all : experiment list

(** One row of the E11 engine scale sweep: a correct-General agreement at
    [sr_n] with seed 111, timed against the wall clock (best of the
    repeats). The virtual-time columns (events, decided) are deterministic. *)
type scale_row = {
  sr_n : int;
  sr_events : int;
  sr_wall_ms : float;
  sr_events_per_sec : float;
  sr_wall_ms_per_sim_s : float;
  sr_decided : bool;
}

(** The raw E11 sweep over [ns] (default n = 7 … 101), best of [repeats]
    (default 3) per row; bench/main.exe gates it against BENCH_engine.json. *)
val e11_scale_rows : ?ns:int list -> ?repeats:int -> unit -> scale_row list
