(* Structured run traces.

   Components record typed events (real-time, node, event); tests and the CLI
   filter, pretty-print and export them. Recording can be disabled wholesale
   for large benchmark runs, where the trace would dominate memory.

   Events carry their data *unformatted* — ints, floats and the strings that
   already exist (values, message-kind literals). Rendering to text happens
   only in [pp]/[to_jsonl], so a disabled trace performs zero detail-string
   allocations on the hot path; the [Ext] escape hatch defers rendering
   behind a closure for the same reason. *)

type event =
  | Send of { src : int; dst : int; msg : string }
  | Deliver of { src : int; dst : int; msg : string }
  | Drop of { src : int; dst : int; msg : string; reason : string }
  | Propose of { g : int; v : string }
  | Ia_invoke of { g : int; v : string }
  | Ia_reject of { g : int; v : string }
  | Ia_skip of { g : int; reason : string }
  | I_accept of { g : int; v : string; tau_g : float }
  | Anchor_set of { g : int; tau_g : float }
  | Mb_accept of { g : int; p : int; v : string; k : int }
  | Mb_broadcaster of { g : int; p : int; total : int }
  | Agree_return of { g : int; decided : string option; tau_g : float }
  | Ig3_failure of { g : int }
  | Scramble of { garbage : int }
  | Reform of { node : int }
      (* a Byzantine node rejoined the correct protocol from arbitrary state *)
  | Delay_surge of { factor : float }
      (* delivery delays scaled by [factor]; 0.0 marks the restore *)
  | Duplicate of { src : int; dst : int; msg : string }
      (* network-level duplication fault: a second copy of a sent message *)
  | Retransmit of { src : int; dst : int; msg : string; attempt : int }
      (* transport resending an unacked frame; [attempt] is 1-based *)
  | Dup_suppress of { src : int; dst : int; seq : int }
      (* transport receive-side dedup dropped an already-seen frame *)
  | Retries_exhausted of { src : int; dst : int; msg : string; seq : int }
      (* transport gave up on an unacked frame after the retry cap *)
  | Service_admit of { g : int; live : int }
      (* service admission controller let a proposal through *)
  | Service_shed of { g : int; reason : string }
      (* service admission controller turned a proposal away *)
  | Service_queue of { g : int; depth : int }
      (* proposal parked in the bounded pending queue; [depth] after *)
  | Service_mode of { degraded : bool; live : int }
      (* overload detector flipped the service mode *)
  | Session_evict of { g : int }
      (* a full session table dropped G's live session to make room *)
  | Ext of { kind : string; render : unit -> string }
      (* generic extension: layers without a dedicated constructor (baselines,
         adversaries) tag an event and defer its rendering *)

let kind_of_event = function
  | Send _ -> "send"
  | Deliver _ -> "deliver"
  | Drop _ -> "drop"
  | Propose _ -> "propose"
  | Ia_invoke _ -> "ia-invoke"
  | Ia_reject _ -> "ia-k1-reject"
  | Ia_skip _ -> "ia-n4-skip"
  | I_accept _ -> "i-accept"
  | Anchor_set _ -> "anchor-set"
  | Mb_accept _ -> "mb-accept"
  | Mb_broadcaster _ -> "mb-broadcaster"
  | Agree_return _ -> "agree-return"
  | Ig3_failure _ -> "ig3-failure"
  | Scramble _ -> "scramble"
  | Reform _ -> "reform"
  | Delay_surge _ -> "delay-surge"
  | Duplicate _ -> "duplicate"
  | Retransmit _ -> "retransmit"
  | Dup_suppress _ -> "dup-suppress"
  | Retries_exhausted _ -> "retries-exhausted"
  | Service_admit _ -> "service-admit"
  | Service_shed _ -> "service-shed"
  | Service_queue _ -> "service-queue"
  | Service_mode _ -> "service-mode"
  | Session_evict _ -> "session-evict"
  | Ext { kind; _ } -> kind

(* The only place event data is turned into text. *)
let detail_of_event = function
  | Send { src; dst; msg } | Deliver { src; dst; msg } ->
      Printf.sprintf "%s %d->%d" msg src dst
  | Drop { src; dst; msg; reason } ->
      Printf.sprintf "%s %d->%d (%s)" msg src dst reason
  | Propose { g; v } | Ia_invoke { g; v } | Ia_reject { g; v } ->
      Printf.sprintf "G=%d v=%S" g v
  | Ia_skip { g; reason } -> Printf.sprintf "G=%d %s" g reason
  | I_accept { g; v; tau_g } -> Printf.sprintf "G=%d v=%S tauG=%.6f" g v tau_g
  | Anchor_set { g; tau_g } -> Printf.sprintf "G=%d tauG=%.6f" g tau_g
  | Mb_accept { g; p; v; k } -> Printf.sprintf "G=%d p=%d v=%S k=%d" g p v k
  | Mb_broadcaster { g; p; total } ->
      Printf.sprintf "G=%d p=%d (total %d)" g p total
  | Agree_return { g; decided = Some v; tau_g } ->
      Printf.sprintf "G=%d decided %S tauG=%.6f" g v tau_g
  | Agree_return { g; decided = None; tau_g } ->
      Printf.sprintf "G=%d aborted tauG=%.6f" g tau_g
  | Ig3_failure { g } -> Printf.sprintf "logical G=%d quiet for Dreset" g
  | Scramble { garbage } -> Printf.sprintf "%d garbage messages" garbage
  | Reform { node } -> Printf.sprintf "node %d rejoins the correct protocol" node
  | Delay_surge { factor } ->
      if factor = 0.0 then "base delay restored"
      else Printf.sprintf "delays scaled by %g" factor
  | Duplicate { src; dst; msg } -> Printf.sprintf "%s %d->%d (dup)" msg src dst
  | Retransmit { src; dst; msg; attempt } ->
      Printf.sprintf "%s %d->%d (attempt %d)" msg src dst attempt
  | Dup_suppress { src; dst; seq } ->
      Printf.sprintf "%d->%d seq=%d" src dst seq
  | Retries_exhausted { src; dst; msg; seq } ->
      Printf.sprintf "%s %d->%d seq=%d (gave up)" msg src dst seq
  | Service_admit { g; live } -> Printf.sprintf "G=%d live=%d" g live
  | Service_shed { g; reason } -> Printf.sprintf "G=%d (%s)" g reason
  | Service_queue { g; depth } -> Printf.sprintf "G=%d depth=%d" g depth
  | Service_mode { degraded; live } ->
      Printf.sprintf "%s live=%d" (if degraded then "degraded" else "normal") live
  | Session_evict { g } -> Printf.sprintf "G=%d" g
  | Ext { render; _ } -> render ()

type entry = { time : float; node : int; event : event }

let entry_kind e = kind_of_event e.event
let entry_detail e = detail_of_event e.event

type t = { mutable entries : entry list; enabled : bool; mutable count : int }

let create ?(enabled = true) () = { entries = []; enabled; count = 0 }

let is_enabled t = t.enabled

let record t ~time ~node event =
  if t.enabled then begin
    t.entries <- { time; node; event } :: t.entries;
    t.count <- t.count + 1
  end

let count t = t.count

(* Entries in chronological order. *)
let to_list t = List.rev t.entries

let filter ?node ?kind t =
  let keep e =
    (match node with None -> true | Some n -> e.node = n)
    && match kind with None -> true | Some k -> String.equal (entry_kind e) k
  in
  List.filter keep (to_list t)

let pp_entry ppf e =
  let detail = entry_detail e in
  if e.node < 0 then Fmt.pf ppf "[%10.6f]  <sys>  %-12s %s" e.time (entry_kind e) detail
  else Fmt.pf ppf "[%10.6f]  n%-4d  %-12s %s" e.time e.node (entry_kind e) detail

let pp ppf t =
  List.iter (fun e -> Fmt.pf ppf "%a@." pp_entry e) (to_list t)

(* ----- JSONL export ----------------------------------------------------- *)

let i x = Json.Num (float_of_int x)

let fields_of_event = function
  | Send { src; dst; msg } | Deliver { src; dst; msg } ->
      [ ("src", i src); ("dst", i dst); ("msg", Json.Str msg) ]
  | Drop { src; dst; msg; reason } ->
      [ ("src", i src); ("dst", i dst); ("msg", Json.Str msg); ("reason", Json.Str reason) ]
  | Propose { g; v } | Ia_invoke { g; v } | Ia_reject { g; v } ->
      [ ("g", i g); ("v", Json.Str v) ]
  | Ia_skip { g; reason } -> [ ("g", i g); ("reason", Json.Str reason) ]
  | I_accept { g; v; tau_g } ->
      [ ("g", i g); ("v", Json.Str v); ("tau_g", Json.Num tau_g) ]
  | Anchor_set { g; tau_g } -> [ ("g", i g); ("tau_g", Json.Num tau_g) ]
  | Mb_accept { g; p; v; k } ->
      [ ("g", i g); ("p", i p); ("v", Json.Str v); ("k", i k) ]
  | Mb_broadcaster { g; p; total } -> [ ("g", i g); ("p", i p); ("total", i total) ]
  | Agree_return { g; decided; tau_g } ->
      [
        ("g", i g);
        ("decided", match decided with Some v -> Json.Str v | None -> Json.Null);
        ("tau_g", Json.Num tau_g);
      ]
  | Ig3_failure { g } -> [ ("g", i g) ]
  | Scramble { garbage } -> [ ("garbage", i garbage) ]
  | Reform { node } -> [ ("reformed", i node) ]
  | Delay_surge { factor } -> [ ("factor", Json.Num factor) ]
  | Duplicate { src; dst; msg } ->
      [ ("src", i src); ("dst", i dst); ("msg", Json.Str msg) ]
  | Retransmit { src; dst; msg; attempt } ->
      [ ("src", i src); ("dst", i dst); ("msg", Json.Str msg); ("attempt", i attempt) ]
  | Dup_suppress { src; dst; seq } ->
      [ ("src", i src); ("dst", i dst); ("seq", i seq) ]
  | Retries_exhausted { src; dst; msg; seq } ->
      [ ("src", i src); ("dst", i dst); ("msg", Json.Str msg); ("seq", i seq) ]
  | Service_admit { g; live } -> [ ("g", i g); ("live", i live) ]
  | Service_shed { g; reason } -> [ ("g", i g); ("reason", Json.Str reason) ]
  | Service_queue { g; depth } -> [ ("g", i g); ("depth", i depth) ]
  | Service_mode { degraded; live } ->
      [ ("degraded", Json.Bool degraded); ("live", i live) ]
  | Session_evict { g } -> [ ("g", i g) ]
  | Ext { render; _ } -> [ ("detail", Json.Str (render ())) ]

let json_of_entry e =
  Json.Obj
    (("time", Json.Num e.time)
    :: ("node", i e.node)
    :: ("kind", Json.Str (entry_kind e))
    :: fields_of_event e.event)

(* One JSON object per line, chronological. *)
let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Json.to_buffer buf (json_of_entry e);
      Buffer.add_char buf '\n')
    (to_list t);
  Buffer.contents buf
