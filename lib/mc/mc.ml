(* Bounded exhaustive checker over the real protocol core.

   The checker never simulates an abstraction: every run builds a fresh world
   out of the production pieces — Engine, Network, Node — and replaces only
   the randomness. All delivery delays and Byzantine menu selections are
   *choices*, resolved by a cursor over an explicit choice vector; the
   explorer enumerates choice-vector prefixes breadth-first, so the first
   counterexample it reports is minimal in branching depth.

   Stateless re-execution: a state is never snapshotted. To expand a prefix
   the checker re-runs the world from time 0, consuming the prefix and then
   defaulting every further choice to option 0, which simultaneously
   completes the run to the horizon (so it can be judged) and discovers the
   next choice point (so it can be branched). A full choice assignment is
   judged exactly once — at the shortest prefix that determines it, i.e. the
   prefix with no trailing default choices.

   Default-spine reuse: the run of P@[0] is the run of P step for step (P's
   run already took option 0 there), so only prefixes that are empty or end
   in a non-default choice are executed. Each executed run keeps its spine —
   the fingerprint and option count of every choice point at or beyond its
   prefix — and P@[0], P@[0;0], … are expanded from it. A run fingerprints
   only from its prefix's length on: earlier fingerprints are never read.

   The visited set holds a canonical fingerprint of the whole world at each
   first-beyond-prefix choice point: every Node's protocol state
   (Node.fingerprint), the engine clock, the undelivered message set and the
   pending decision. Reaching a fingerprinted state again prunes the entire
   subtree — the default continuation from an identical state is identical.

   Partial-order reduction (por): (a) deliveries to Byzantine nodes never
   branch — the scripts are time-triggered and input-oblivious, so those
   deliveries commute with every other event; (b) the in-flight set is
   fingerprinted in canonical sorted order, merging runs that performed
   commuting deliveries in different orders. With por off, Byzantine-bound
   deliveries branch like any other matched send and the in-flight set keeps
   raw insertion order. Soundness caveats are spelled out in DESIGN.md §10. *)

open Ssba_core.Types
module Params = Ssba_core.Params
module Node = Ssba_core.Node
module Engine = Ssba_sim.Engine
module Clock = Ssba_sim.Clock
module Rng = Ssba_sim.Rng
module Delay = Ssba_net.Delay
module Network = Ssba_net.Network
module Link = Ssba_net.Link
module Msg = Ssba_net.Msg
module Scenario = Ssba_harness.Scenario
module Runner = Ssba_harness.Runner
module Checks = Ssba_harness.Checks
module Invariants = Ssba_harness.Invariants
module Spec = Ssba_fuzz.Spec
module Catalog = Ssba_adversary.Catalog
module Fp_text = Ssba_sim.Fp_text

type choice = { c_label : string; c_options : int; c_picked : int }

type run = {
  prefix : int array;
  choices : choice list;  (* fresh choice points, in execution order *)
  fingerprints : string list;  (* world fingerprint at each fresh choice *)
  next : (string * int * string) option;
      (* fingerprint, option count and label of the first choice point beyond
         the prefix; [None] when the run branched nowhere new *)
  pruned : bool;  (* aborted: the first free choice's state was visited *)
  violations : string list;  (* pairwise-agreement oracle + invariant monitor *)
  splits : string list;  (* split decisions (see [split_decisions]) *)
  returns : return_info list;
  sends : ((node_id * node_id) * float) list;  (* every send's delay, in order *)
  transcript : (node_id * (float * node_id option * message) list) list;
  events : int;
}

(* ----- one run ---------------------------------------------------------- *)

(* Two correct nodes deciding different values for the same General with
   anchors within 4d: exactly the IA-4a split the re-initiation blackout
   exists to prevent. Kept separate from the oracle verdicts because the
   scarcity configs also strand correct sessions through eviction, which
   trips the relay oracle with or without the blackout. Clocks are perfect in
   checker worlds, so local anchors compare directly as real times. *)
let split_decisions (params : Params.t) returns =
  let d = params.Params.d in
  let decided =
    List.filter_map
      (fun r -> match r.outcome with Decided v -> Some (r, v) | Aborted -> None)
      returns
  in
  let pairs = ref [] in
  List.iteri
    (fun i (a, va) ->
      List.iteri
        (fun j (b, vb) ->
          if
            i < j && a.g = b.g && (not (String.equal va vb))
            && Float.abs (a.tau_g -. b.tau_g) <= 4.0 *. d
          then
            pairs :=
              Fmt.str
                "split G=%d: node %d decided %S (anchor %.2fd) vs node %d \
                 decided %S (anchor %.2fd)"
                a.g a.node va (a.tau_g /. d) b.node vb (b.tau_g /. d)
              :: !pairs)
        decided)
    decided;
  List.rev !pairs

(* Fingerprint workspace, reused by every run of one exploration: the text
   buffer, and a byte copy to digest in place (a Buffer exposes no view of
   its bytes). Both outgrow the minor heap, so fresh ones per fingerprint or
   per run would be major-heap garbage. *)
type scratch = { buf : Buffer.t; mutable bytes : Bytes.t }

let scratch () = { buf = Buffer.create 4096; bytes = Bytes.create 4096 }

(* The undelivered sends of one run in send order, as columns. Delivering a
   send clears its slot ([src] = -1); [lo] is kept past the cleared prefix
   and [hi] past the last send. When the columns are full, the live slots
   move to the front in order, and the columns double only if more than
   half were live, so a send costs amortized O(1). *)
type in_flight = {
  mutable at : float array;
  mutable src : int array;
  mutable dst : int array;
  mutable msg : message array;
  mutable lo : int;
  mutable hi : int;
}

(* A static filler: growing the message column never forces a minor
   collection. *)
let no_message = Initiator { g = -1; v = "" }

let in_flight () =
  let cap = 16 in
  {
    at = Array.make cap 0.0;
    src = Array.make cap (-1);
    dst = Array.make cap (-1);
    msg = Array.make cap no_message;
    lo = 0;
    hi = 0;
  }

let track fl ~at ~src ~dst m =
  let cap = Array.length fl.src in
  if fl.hi = cap then begin
    let live = ref 0 in
    for i = fl.lo to fl.hi - 1 do
      if fl.src.(i) >= 0 then incr live
    done;
    let grow = 2 * !live > cap in
    let fresh col filler = if grow then Array.make (2 * cap) filler else col in
    let at' = fresh fl.at 0.0 and src' = fresh fl.src (-1) in
    let dst' = fresh fl.dst (-1) and msg' = fresh fl.msg no_message in
    let j = ref 0 in
    for i = fl.lo to fl.hi - 1 do
      if fl.src.(i) >= 0 then begin
        at'.(!j) <- fl.at.(i);
        src'.(!j) <- fl.src.(i);
        dst'.(!j) <- fl.dst.(i);
        msg'.(!j) <- fl.msg.(i);
        incr j
      end
    done;
    fl.at <- at'; fl.src <- src'; fl.dst <- dst'; fl.msg <- msg';
    fl.lo <- 0;
    fl.hi <- !j
  end;
  let i = fl.hi in
  fl.at.(i) <- at; fl.src.(i) <- src; fl.dst.(i) <- dst; fl.msg.(i) <- m;
  fl.hi <- i + 1

(* Clear the first live slot, in send order, that matches. *)
let untrack fl ~at ~src ~dst =
  let i = ref fl.lo in
  while
    !i < fl.hi
    && not (fl.src.(!i) = src && fl.dst.(!i) = dst && fl.at.(!i) = at)
  do
    incr i
  done;
  if !i < fl.hi then begin
    fl.src.(!i) <- -1;
    while fl.lo < fl.hi && fl.src.(fl.lo) < 0 do
      fl.lo <- fl.lo + 1
    done
  end

(* [compare] on two slots' (at, src, dst, message) tuples. *)
let compare_slots fl i j =
  let c = Float.compare fl.at.(i) fl.at.(j) in
  if c <> 0 then c
  else
    let c = Int.compare fl.src.(i) fl.src.(j) in
    if c <> 0 then c
    else
      let c = Int.compare fl.dst.(i) fl.dst.(j) in
      if c <> 0 then c else compare fl.msg.(i) fl.msg.(j)

(* Only choice points at position [fingerprint_from] or later are
   fingerprinted (and listed in [fingerprints]); [fingerprint_from] must not
   exceed the prefix length, since the first choice beyond the prefix is
   checked against [visited]. *)
let execute (cfg : Config.t) ~por ~visited ~scratch ~fingerprint_from prefix =
  let params = cfg.Config.params in
  let n = params.Params.n in
  let engine = Engine.create () in
  (* The network runs fault-free; its RNG streams are drawn but never decide
     anything (the delay override below bypasses the drawn delay). *)
  let net =
    Network.create ~engine ~n ~delay:(Delay.fixed cfg.Config.default_delay)
      ~rng:(Rng.create 1) ~kind_of:kind_of_message ()
  in
  let nodes : (node_id * Node.t) list ref = ref [] in
  let in_flight = in_flight () in
  let pos = ref 0 in
  let choices = ref [] in
  let fps = ref [] in
  let next = ref None in
  let pruned = ref false in
  let world_fingerprint ~label n_options =
    let buf = scratch.buf and fl = in_flight in
    let add = Buffer.add_string and int = Fp_text.int in
    Buffer.clear buf;
    add buf "t="; Fp_text.float buf (Engine.now engine); add buf ";";
    List.iter (fun (_, node) -> Node.fingerprint buf node) !nodes;
    let live = ref [] in
    for i = fl.hi - 1 downto fl.lo do
      if fl.src.(i) >= 0 then live := i :: !live
    done;
    List.iter
      (fun i ->
        add buf "m["; Fp_text.float buf fl.at.(i); add buf ","; int buf fl.src.(i);
        add buf ">"; int buf fl.dst.(i); add buf ","; add_message buf fl.msg.(i);
        add buf "]")
      (if por then List.sort (compare_slots fl) !live else !live);
    add buf "?"; add buf label; add buf "/"; int buf n_options;
    let len = Buffer.length buf in
    if Bytes.length scratch.bytes < len then scratch.bytes <- Bytes.create (2 * len);
    Buffer.blit buf 0 scratch.bytes 0 len;
    Digest.to_hex (Digest.subbytes scratch.bytes 0 len)
  in
  let choose ~label n_options =
    if n_options <= 1 then 0
    else begin
      let fp =
        if !pos < fingerprint_from then ""
        else begin
          let fp = world_fingerprint ~label n_options in
          fps := fp :: !fps;
          fp
        end
      in
      let pick =
        if !pos < Array.length prefix then prefix.(!pos)
        else begin
          (if !next = None then begin
             next := Some (fp, n_options, label);
             if Hashtbl.mem visited fp then begin
               (* identical world, identical default continuation: the
                  subtree (and this run's tail) is redundant *)
               pruned := true;
               Engine.stop engine
             end
           end);
          0
        end
      in
      incr pos;
      choices := { c_label = label; c_options = n_options; c_picked = pick } :: !choices;
      pick
    end
  in
  (* A delay class draws once per run; later sends in the class reuse the
     drawn delay without building a label. *)
  let drawn : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let sends = ref [] in
  Network.set_delay_override net
    (Some
       (fun ~src ~dst payload ->
         let delay =
           match
             if por && Config.is_byz cfg dst then None
             else cfg.Config.branch ~src ~dst payload
           with
           | None -> cfg.Config.default_delay
           | Some key -> (
               match Hashtbl.find_opt drawn key with
               | Some delay -> delay
               | None ->
                   let lattice = Config.lattice_for cfg key in
                   let delay =
                     lattice.(choose ~label:("d:" ^ key) (Array.length lattice))
                   in
                   Hashtbl.add drawn key delay;
                   delay)
         in
         track in_flight ~at:(Engine.now engine +. delay) ~src ~dst payload;
         sends := ((src, dst), delay) :: !sends;
         Some delay))
    ;
  (* Deliveries leave the tracked set through a wrapping handler; equality on
     the scheduled time is exact because the engine replays the very float it
     computed at send time. *)
  let base = Network.link net in
  let link =
    {
      base with
      Link.set_handler =
        (fun id h ->
          base.Link.set_handler id (fun m ->
              untrack in_flight ~at:(Engine.now engine) ~src:m.Msg.src
                ~dst:m.Msg.dst;
              h m));
    }
  in
  (* World construction mirrors Runner.run: correct nodes in id order,
     then the Byzantine schedules, then the proposals — the engine breaks
     time ties by scheduling order, and counterexample replay through the
     Runner depends on reproducing it. *)
  let returns = ref [] in
  let observations = ref [] in
  for id = 0 to n - 1 do
    if not (Config.is_byz cfg id) then begin
      let node =
        Node.create_on ?session_capacity:cfg.Config.session_capacity
          ~blackout:cfg.Config.blackout ~id ~params ~clock:Clock.perfect ~engine
          ~link ()
      in
      Node.subscribe node (fun r -> returns := r :: !returns);
      Node.subscribe_observations node (fun g obs ->
          observations :=
            { Runner.obs_node = id; obs_g = g; obs; obs_rt = Engine.now engine }
            :: !observations);
      nodes := (id, node) :: !nodes
    end
  done;
  nodes := List.rev !nodes;
  let transcript =
    List.map (fun (b : Config.byz) -> (b.Config.byz_id, ref [])) cfg.Config.byz
  in
  List.iter
    (fun (b : Config.byz) ->
      let id = b.Config.byz_id in
      link.Link.set_handler id (fun _ -> ());
      let log = List.assoc id transcript in
      List.iter
        (fun (st : Config.script_step) ->
          if st.Config.options <> [] then
            Engine.schedule engine ~at:st.Config.step_at (fun () ->
                let k =
                  choose
                    ~label:("byz" ^ string_of_int id ^ ":" ^ st.Config.step_label)
                    (List.length st.Config.options)
                in
                List.iter
                  (fun (dst, m) ->
                    log := (st.Config.step_at, dst, m) :: !log;
                    match dst with
                    | Some dst -> link.Link.send ~src:id ~dst m
                    | None -> link.Link.broadcast ~src:id m)
                  (List.nth st.Config.options k)))
        b.Config.steps)
    cfg.Config.byz;
  let proposal_results = ref [] in
  List.iter
    (fun (p : Scenario.proposal) ->
      Engine.schedule engine ~at:p.Scenario.at (fun () ->
          let outcome =
            match List.assoc_opt p.Scenario.g !nodes with
            | None -> Runner.No_general
            | Some node -> (
                match Node.propose node p.Scenario.v with
                | Ok () -> Runner.Accepted
                | Error e -> Runner.Refused e)
          in
          proposal_results := (p, outcome) :: !proposal_results))
    cfg.Config.proposals;
  let stats = Engine.run ~until:cfg.Config.horizon engine in
  let violations, splits =
    if !pruned then ([], [])
    else begin
      let scenario =
        Scenario.default ~name:cfg.Config.name ~seed:0
          ~horizon:cfg.Config.horizon ~record_observations:true
          ~delay:(Delay.fixed cfg.Config.default_delay) ~clocks:Scenario.Perfect
          ~cast:(List.map (fun id -> (id, Catalog.Silent)) (Config.byz_ids cfg))
          ~proposals:cfg.Config.proposals
          ?session_capacity:cfg.Config.session_capacity
          ~blackout:cfg.Config.blackout params
      in
      let result =
        Runner.finish scenario engine stats ~returns:!returns
          ~observations:!observations ~correct:(Config.correct_ids cfg)
          ~clocks:(Array.make n Clock.perfect) ~nodes:!nodes
          ~proposal_results:!proposal_results
      in
      ( Checks.pairwise_agreement ~settle:0.0 result @ Invariants.check result,
        split_decisions params !returns )
    end
  in
  {
    prefix;
    choices = List.rev !choices;
    fingerprints = List.rev !fps;
    next = !next;
    pruned = !pruned;
    violations;
    splits;
    returns = List.sort (fun a b -> compare a.rt_ret b.rt_ret) !returns;
    sends = List.rev !sends;
    transcript = List.map (fun (id, log) -> (id, List.rev !log)) transcript;
    events = stats.Engine.events_processed;
  }

let run_vector cfg ~por prefix =
  execute cfg ~por ~visited:(Hashtbl.create 1) ~scratch:(scratch ())
    ~fingerprint_from:0 prefix

(* ----- exploration ------------------------------------------------------ *)

type report = {
  config_name : string;
  por : bool;
  depth : int;
  explored : int;  (* prefixes expanded (internal prefixes, leaves and pruned) *)
  judged : int;  (* complete choice assignments judged by the oracles *)
  pruned : int;  (* subtrees cut by the visited set *)
  frontier : int;  (* choice points left unexpanded by the depth bound *)
  deepest : int;  (* longest prefix reached *)
  violations : (string * int array) list;
      (* distinct oracle violations with a minimal-depth prefix exhibiting
         each (breadth-first order makes the first witness minimal) *)
  splits : (string * int array) list;
  counterexample : run option;  (* first (minimal) run with a split decision *)
  truncated : bool;  (* stopped by max_runs, not exhaustion *)
}

(* The spine of a run executed with [~fingerprint_from:(length prefix)]: the
   fingerprint and option count of each choice point at or beyond its
   prefix, in execution order. *)
let spine_of (r : run) =
  let fresh = List.filteri (fun i _ -> i >= Array.length r.prefix) r.choices in
  Array.of_list
    (List.map2 (fun fp c -> (fp, c.c_options)) r.fingerprints fresh)

(* A queued prefix. [Execute p] runs the world under [p]. [Spine (p, s, k)]
   is p = q @ [0]^k for an executed q with spine [s]: its run is q's run, so
   its first choice point beyond the prefix is [s.(k)]. *)
type job = Execute of int array | Spine of int array * (string * int) array * int

(* Breadth-first over choice-vector prefixes, from the empty one. Only
   prefixes that are empty or end in a non-default choice are executed, and
   each of those is judged. *)
let explore ?(max_runs = 200_000) (cfg : Config.t) ~por ~depth =
  let visited = Hashtbl.create 4096 in
  let q = Queue.create () in
  Queue.add (Execute [||]) q;
  let scratch = scratch () in
  let explored = ref 0
  and judged = ref 0
  and pruned = ref 0
  and frontier = ref 0
  and deepest = ref 0 in
  let violations = ref [] and splits = ref [] in
  let counterexample = ref None in
  let truncated = ref false in
  let record store found prefix =
    List.iter
      (fun s -> if not (List.mem_assoc s !store) then store := (s, prefix) :: !store)
      found
  in
  let judge (r : run) =
    incr judged;
    record violations r.violations r.prefix;
    record splits r.splits r.prefix;
    if !counterexample = None && r.splits <> [] then
      (* re-run with every choice point fingerprinted *)
      counterexample := Some (run_vector cfg ~por r.prefix)
  in
  while (not (Queue.is_empty q)) && not !truncated do
    if !explored >= max_runs then truncated := true
    else begin
      let prefix, spine, k, executed =
        match Queue.pop q with
        | Spine (prefix, spine, k) -> (prefix, spine, k, None)
        | Execute prefix ->
            let r =
              execute cfg ~por ~visited ~scratch
                ~fingerprint_from:(Array.length prefix) prefix
            in
            (prefix, spine_of r, 0, Some r)
      in
      let len = Array.length prefix in
      incr explored;
      if len > !deepest then deepest := len;
      (* Checked at dequeue time for both kinds of job; an executed run whose
         first free choice was visited stopped there. *)
      match if k < Array.length spine then Some spine.(k) else None with
      | Some (fp, _) when Hashtbl.mem visited fp -> incr pruned
      | next -> (
          Option.iter judge executed;
          match next with
          | None -> ()
          | Some (fp, options) ->
              Hashtbl.replace visited fp ();
              if len >= depth then incr frontier
              else begin
                Queue.add (Spine (Array.append prefix [| 0 |], spine, k + 1)) q;
                for i = 1 to options - 1 do
                  Queue.add (Execute (Array.append prefix [| i |])) q
                done
              end)
    end
  done;
  {
    config_name = cfg.Config.name;
    por;
    depth;
    explored = !explored;
    judged = !judged;
    pruned = !pruned;
    frontier = !frontier;
    deepest = !deepest;
    violations = List.rev !violations;
    splits = List.rev !splits;
    counterexample = !counterexample;
    truncated = !truncated;
  }

let pp_prefix ppf p =
  Fmt.pf ppf "[%a]" Fmt.(array ~sep:(Fmt.any ";") int) p

let pp_report ppf r =
  Fmt.pf ppf
    "%s por=%b depth=%d: explored=%d judged=%d pruned=%d frontier=%d \
     deepest=%d%s@."
    r.config_name r.por r.depth r.explored r.judged r.pruned r.frontier
    r.deepest
    (if r.truncated then " TRUNCATED" else "");
  Fmt.pf ppf "  oracle violations: %d distinct@." (List.length r.violations);
  List.iter
    (fun (v, p) -> Fmt.pf ppf "    %a %s@." pp_prefix p v)
    r.violations;
  Fmt.pf ppf "  split decisions: %d distinct@." (List.length r.splits);
  List.iter (fun (v, p) -> Fmt.pf ppf "    %a %s@." pp_prefix p v) r.splits

(* ----- counterexample export ------------------------------------------- *)

(* Pin an explored run as a fuzz Spec: the Byzantine side becomes a
   [Catalog.Scripted] transcript, the delivery schedule a [Delay.Scripted]
   delay (k-th send on each link gets the delay the checker chose). Replaying
   the spec through the Runner re-executes the same world — the engine breaks
   ties identically, correct-node code is shared, and the scripted strategy
   is input-oblivious — so `ssba_fuzz --replay` reproduces the violation. *)
let spec_of_run (cfg : Config.t) (r : run) ~name =
  let links =
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun (link, delay) ->
        match Hashtbl.find_opt tbl link with
        | Some ds -> ds := delay :: !ds
        | None ->
            Hashtbl.add tbl link (ref [ delay ]);
            order := link :: !order)
      r.sends;
    List.rev_map (fun link -> (link, List.rev !(Hashtbl.find tbl link))) !order
  in
  {
    Spec.name;
    seed = 0;
    n = cfg.Config.params.Params.n;
    f = cfg.Config.params.Params.f;
    delay = Delay.Scripted { default = cfg.Config.default_delay; links };
    clocks = Scenario.Perfect;
    cast =
      List.map
        (fun (id, steps) -> (id, Catalog.Scripted { steps }))
        r.transcript;
    proposals = cfg.Config.proposals;
    events = [];
    transport = None;
    horizon = cfg.Config.horizon;
    session_capacity = cfg.Config.session_capacity;
    blackout = cfg.Config.blackout;
    r_slack = cfg.Config.params.Params.r_slack;
    service = None;
  }

(* ----- E14: states explored, POR reduction, verdicts -------------------- *)

let e14 () =
  let depth = 24 in
  Fmt.pr "E14 — Exhaustive small-model checking (n=4, f=1)@.@.";
  Fmt.pr "%-22s %-5s %9s %8s %8s %9s %6s %7s@." "config" "por" "explored"
    "judged" "pruned" "frontier" "viol" "splits";
  let row cfg ~por ~depth =
    let r = explore cfg ~por ~depth in
    Fmt.pr "%-22s %-5b %9d %8d %8d %9d %6d %7d@." r.config_name por r.explored
      r.judged r.pruned r.frontier
      (List.length r.violations)
      (List.length r.splits);
    r
  in
  let on = row (Config.smoke ()) ~por:true ~depth in
  let off = row (Config.smoke ()) ~por:false ~depth in
  let s_on = row (Config.split ~blackout:true ()) ~por:true ~depth in
  let s_off = row (Config.split ~blackout:false ()) ~por:true ~depth in
  Fmt.pr "@.POR reduction factor (smoke): %.2fx (%d -> %d states)@."
    (float_of_int off.explored /. float_of_int on.explored)
    off.explored on.explored;
  Fmt.pr "smoke verdict: %s@."
    (if on.violations = [] && off.violations = [] then
       "zero oracle violations over the full choice space"
     else "VIOLATIONS FOUND");
  Fmt.pr
    "split sensitivity: blackout on -> %d split decisions; blackout off -> %d \
     (checker rediscovers the IA-4 split the guard prevents)@."
    (List.length s_on.splits)
    (List.length s_off.splits);
  match s_off.counterexample with
  | None -> ()
  | Some r ->
      Fmt.pr "minimal split counterexample at choice prefix %a@." pp_prefix
        r.prefix
