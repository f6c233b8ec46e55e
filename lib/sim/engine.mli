(** Deterministic discrete-event simulation engine.

    The engine owns virtual real time and a queue of scheduled closures.
    Events at equal times run in scheduling order, so a given scenario always
    produces the same run. *)

type t

type stats = {
  events_processed : int;
  end_time : float;
  queue_exhausted : bool;
      (** [true] when the run ended because no events remained; [false] when
          stopped by [until], [max_events] or {!stop}. *)
}

(** [create ?trace ()] builds an engine at time 0 with a fresh metrics
    registry. Without [trace], an internal disabled trace is used. The
    engine feeds [engine.scheduled] and [engine.events] counters; other
    substrates (network, nodes) reach the shared registry through
    {!metrics}. *)
val create : ?trace:Trace.t -> unit -> t

(** Current virtual real time. *)
val now : t -> float

val trace : t -> Trace.t

(** The simulation-wide metrics registry. *)
val metrics : t -> Metrics.t

(** Number of queued events. *)
val pending : t -> int

(** [schedule t ~at f] runs [f] at virtual time [at] (clamped to the
    present if in the past). Raises [Invalid_argument] if [at] is NaN. *)
val schedule : t -> at:float -> (unit -> unit) -> unit

(** [schedule_after t ~delay f] runs [f] after [delay]. Raises
    [Invalid_argument] unless [delay >= 0] (so also on NaN). *)
val schedule_after : t -> delay:float -> (unit -> unit) -> unit

(** [append_after t lane ~delay ~tag] arms one more timer on [lane] (see
    the lane contract of {!Event_queue.type-batch}) after [delay], carrying
    [tag] for the lane's owner: the key, the checks and their messages, and
    the [engine.scheduled] count are exactly those of {!schedule_after}, so
    a timer moved onto a lane changes no run. Keys of timers that all share
    one [delay] ascend on their own, since the clock never runs backwards.
    Raises [Invalid_argument] unless [delay >= 0], when the key would not
    come after the lane's last, and where {!Event_queue.set_key} does. *)
val append_after : t -> Event_queue.batch -> delay:float -> tag:int -> unit

(** Reserve the next tie-break sequence number for a fan-out sub-event.
    Counts as one scheduled event (metrics-identical to {!schedule}); the
    caller must arm the sub-event under exactly this seq via
    {!schedule_batch}. Reserving in the same order the per-entry scheme
    called {!schedule} is what keeps batched runs bit-identical. *)
val next_seq : t -> int

(** Sort a filled fan-out descriptor's slots ({!Event_queue.sort_batch})
    and arm it ({!Event_queue.push_batch}): one heap entry expanding to its
    sub-events in exact (at, seq) order. The slots may be filled in any
    order. All sub-event times must be >= {!now} — the network computes
    them as [now + delay] with validated non-negative delays. Raises
    [Invalid_argument] on a NaN sub-event time. *)
val schedule_batch : t -> Event_queue.batch -> unit

(** Abort the current {!run} after the event being processed. *)
val stop : t -> unit

(** Record a typed trace event at the current time. *)
val record : t -> node:int -> Trace.event -> unit

(** [run ?until ?max_events t] processes queued events in time order until
    the queue empties, time would exceed [until], [max_events] events ran, or
    {!stop} is called. A run stopped by [until] leaves the clock at
    [until], or where it was if [until] lies in the past: the clock never
    runs backwards. Raises [Invalid_argument] if [until] is NaN. *)
val run : ?until:float -> ?max_events:int -> t -> stats

(** Like {!run}, but paced against the wall clock at [speed] virtual seconds
    per wall second (default 1.0): each event waits until its virtual time.
    Event order — and therefore every result — is identical to {!run}; only
    the pacing differs. Useful for live demos of a scenario. Raises
    [Invalid_argument] unless [speed > 0] (so also on NaN). *)
val run_realtime : ?speed:float -> ?until:float -> ?max_events:int -> t -> stats
