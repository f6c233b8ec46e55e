(* Message-delay policies.

   The bounded-delay model (paper §2) only requires every message between
   correct nodes to arrive within delta real-time units once the network is
   non-faulty. Within that bound the adversary may choose per-message delays;
   the policies below let scenarios exercise the interesting corners:
   uniformly fast networks (the message-driven speedup of experiment E3),
   worst-case stragglers, the protocol's comparison boundaries, and an
   explored delivery schedule replayed send by send. *)

type t =
  | Fixed of float
  | Uniform of { lo : float; hi : float }
  | Bimodal of { fast : float; slow : float; slow_prob : float }
      (* mostly-fast links with occasional worst-case stragglers *)
  | Edge of { atoms : float list }
      (* boundary sampling: every hop picks uniformly among a small set of
         atoms chosen so that short chains of hops land exactly on the
         protocol's comparison boundaries (4d, 5d, the 3d skew deadline, the
         tau_g - d purge horizon). Interior draws never hit a [<=] boundary
         exactly; this model exists to hammer them. *)
  | Scripted of { default : float; links : ((int * int) * float list) list }
      (* per (src, dst): the delay of that link's k-th draw; [default] once
         the list is exhausted (and for unlisted links). The model checker's
         counterexample export — correct nodes' send order is deterministic,
         so indexing by draw count reproduces the explored schedule. *)
  | Scaled of { factor : float; base : t }
      (* a delay surge: every draw of [base], multiplied by [factor]. Drawing
         consumes exactly the RNG values [base] would, so surging and
         restoring a policy mid-run never shifts the random stream. *)

(* Each comparison is written so that NaN fails it. *)
let rec valid = function
  | Fixed x -> x >= 0.0
  | Uniform { lo; hi } -> 0.0 <= lo && lo <= hi
  | Bimodal { fast; slow; slow_prob } ->
      0.0 <= fast && fast <= slow && 0.0 <= slow_prob && slow_prob <= 1.0
  | Edge { atoms } -> atoms <> [] && List.for_all (fun x -> x >= 0.0) atoms
  | Scripted { default; links } ->
      default >= 0.0
      && List.for_all (fun (_, ds) -> List.for_all (fun x -> x >= 0.0) ds) links
  | Scaled { factor; base } -> factor > 0.0 && valid base

let checked what t =
  if valid t then t else invalid_arg (Printf.sprintf "Delay.%s: bad parameters" what)

let fixed d = checked "fixed" (Fixed d)
let uniform ~lo ~hi = checked "uniform" (Uniform { lo; hi })
let bimodal ~fast ~slow ~slow_prob = checked "bimodal" (Bimodal { fast; slow; slow_prob })
let scaled factor base = checked "scaled" (Scaled { factor; base })

(* Per-link draw counts, created per run by the network: they persist across
   policy swaps (a surge and its restore keep counting) and count every
   draw, duplicate copies included. Only scripted links are ever counted. *)
type counters = (int * int, int) Hashtbl.t

let counters () = Hashtbl.create 8

(* Split so the overwhelmingly common policies ([Uniform]/[Fixed]) can be
   inlined — with the RNG draw chain unboxed — straight into the network's
   per-destination send loop; a recursive [draw] would defeat inlining. *)
let rec draw_rare t ~rng ~counters ~src ~dst =
  match t with
  | Fixed d -> d
  | Uniform { lo; hi } -> Ssba_sim.Rng.float_in_range rng ~lo ~hi
  | Bimodal { fast; slow; slow_prob } ->
      if Ssba_sim.Rng.float rng 1.0 < slow_prob then slow else fast
  | Edge { atoms } -> List.nth atoms (Ssba_sim.Rng.int rng (List.length atoms))
  | Scripted { default; links } -> (
      match List.assoc_opt (src, dst) links with
      | None -> default
      | Some ds -> (
          let k = Option.value ~default:0 (Hashtbl.find_opt counters (src, dst)) in
          Hashtbl.replace counters (src, dst) (k + 1);
          match List.nth_opt ds k with Some x -> x | None -> default))
  | Scaled { factor; base } -> factor *. draw_rare base ~rng ~counters ~src ~dst

let[@inline always] draw t ~rng ~counters ~src ~dst =
  match t with
  | Fixed d -> d
  | Uniform { lo; hi } -> Ssba_sim.Rng.float_in_range rng ~lo ~hi
  | other -> draw_rare other ~rng ~counters ~src ~dst
