(** Message-delay policies for the bounded-delay network (paper §2).

    Once the network is correct every message between correct nodes arrives
    within [delta]; within that bound the adversary schedules delays. A
    policy is plain data: scenarios and replay files hold it as is, and the
    network interprets it per send. *)

type t =
  | Fixed of float  (** every message takes exactly this delay *)
  | Uniform of { lo : float; hi : float }
      (** per-message delay uniform in [\[lo, hi\]] *)
  | Bimodal of { fast : float; slow : float; slow_prob : float }
      (** [fast] with probability [1 - slow_prob], else [slow] *)
  | Edge of { atoms : float list }
      (** boundary sampling: every hop picks uniformly among [atoms], chosen
          so short chains of hops land exactly on the protocol's comparison
          boundaries (4d, 5d, the 3d skew deadline); interior models never
          hit a [<=] boundary exactly *)
  | Scripted of { default : float; links : ((int * int) * float list) list }
      (** per (src, dst): the k-th draw on that link returns the k-th listed
          delay, then [default] (also for unlisted links). The model
          checker's counterexample export *)
  | Scaled of { factor : float; base : t }
      (** a delay surge: every draw of [base] multiplied by [factor]
          (factor > 1 pushes deliveries beyond the [delta] the base policy
          respected, violating the bounded-delay model of §2 until the
          original policy is restored). Draws consume exactly the RNG values
          and script positions [base] would, so installing and removing the
          surge mid-run never shifts the random stream *)

(** Whether every parameter is in range: delays [>= 0], [lo <= hi],
    [fast <= slow], [slow_prob] in [\[0, 1\]], a non-empty atom list and a
    positive surge factor. NaN fails every check. *)
val valid : t -> bool

(** Validating constructors; each raises [Invalid_argument] on parameters
    {!valid} rejects. *)
val fixed : float -> t

val uniform : lo:float -> hi:float -> t
val bimodal : fast:float -> slow:float -> slow_prob:float -> t
val scaled : float -> t -> t

(** Per-run draw state: how many times each link has drawn, which is what
    [Scripted] indexes by. The network owns one per run. *)
type counters

val counters : unit -> counters

(** Draw the delay for one message on [(src, dst)]. *)
val draw : t -> rng:Ssba_sim.Rng.t -> counters:counters -> src:int -> dst:int -> float
