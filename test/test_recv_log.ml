(* Tests for the timestamped receive log. *)

open Helpers
module L = Ssba_core.Recv_log

(* The log's contents, read through [iter_entries]: (time, sender) pairs in
   ascending order, and the sender set, presence and latest arrival derived
   from them. *)
let entries l =
  let acc = ref [] in
  L.iter_entries l (fun ~sender ~at -> acc := (at, sender) :: !acc);
  List.rev !acc

let senders l = List.sort Int.compare (List.map snd (entries l))
let mem l ~sender = List.exists (fun (_, s) -> s = sender) (entries l)

let latest l =
  match List.rev (entries l) with [] -> None | (at, _) :: _ -> Some at

let test_note_and_count () =
  let l = L.create () in
  check_int "empty" 0 (L.count l);
  L.note l ~sender:1 ~at:1.0;
  L.note l ~sender:2 ~at:2.0;
  L.note l ~sender:1 ~at:3.0;
  check_int "distinct senders" 2 (L.count l);
  check_bool "senders sorted" true (senders l = [ 1; 2 ])

let test_note_keeps_max () =
  let l = L.create () in
  L.note l ~sender:1 ~at:5.0;
  L.note l ~sender:1 ~at:3.0;
  (* replay of an older message must not rewind *)
  check_bool "latest kept" true (latest l = Some 5.0)

let test_window_count () =
  let l = L.create () in
  L.note l ~sender:1 ~at:1.0;
  L.note l ~sender:2 ~at:2.0;
  L.note l ~sender:3 ~at:3.0;
  check_int "full window" 3 (L.count_in_window l ~now:3.0 ~width:2.0);
  check_int "narrow window" 2 (L.count_in_window l ~now:3.0 ~width:1.0);
  check_int "point window" 1 (L.count_in_window l ~now:3.0 ~width:0.0);
  check_int "window in the past excludes later arrivals" 1
    (L.count_in_window l ~now:1.5 ~width:1.0)

let test_window_excludes_future () =
  let l = L.create () in
  L.corrupt l ~sender:1 ~at:10.0;
  (* future garbage *)
  L.note l ~sender:2 ~at:1.0;
  check_int "future arrivals not counted" 1
    (L.count_in_window l ~now:2.0 ~width:5.0)

let test_shortest_window () =
  let l = L.create () in
  L.note l ~sender:1 ~at:1.0;
  L.note l ~sender:2 ~at:2.0;
  L.note l ~sender:3 ~at:4.0;
  (match L.shortest_window l ~now:5.0 ~count:2 with
  | Some alpha -> check_float "2 most recent span" 3.0 alpha
  | None -> Alcotest.fail "expected a window");
  (match L.shortest_window l ~now:5.0 ~count:3 with
  | Some alpha -> check_float "3 most recent span" 4.0 alpha
  | None -> Alcotest.fail "expected a window");
  check_bool "too few senders" true (L.shortest_window l ~now:5.0 ~count:4 = None);
  check_bool "count 0 is trivially 0" true
    (L.shortest_window l ~now:5.0 ~count:0 = Some 0.0)

let test_shortest_window_refresh () =
  (* A re-send refreshes the sender's position in the window. *)
  let l = L.create () in
  L.note l ~sender:1 ~at:1.0;
  L.note l ~sender:2 ~at:1.5;
  L.note l ~sender:1 ~at:9.0;
  match L.shortest_window l ~now:9.0 ~count:2 with
  | Some alpha -> check_float "old arrival governs" 7.5 alpha
  | None -> Alcotest.fail "expected a window"

let test_decay () =
  let l = L.create () in
  L.note l ~sender:1 ~at:1.0;
  L.note l ~sender:2 ~at:5.0;
  L.decay l ~horizon:2.0;
  check_int "old removed" 1 (L.count l);
  check_bool "survivor" true (senders l = [ 2 ])

let test_sanitize () =
  let l = L.create () in
  L.note l ~sender:1 ~at:1.0;
  L.corrupt l ~sender:2 ~at:99.0;
  L.sanitize l ~now:5.0;
  check_int "future dropped" 1 (L.count l);
  check_bool "real one kept" true (senders l = [ 1 ])

let test_clear () =
  let l = L.create () in
  L.note l ~sender:1 ~at:1.0;
  L.clear l;
  check_bool "empty" true (L.is_empty l)

(* qcheck: count_in_window is monotone in width, and shortest_window is
   consistent with count_in_window. *)
let arrivals_gen =
  QCheck.(list_of_size Gen.(int_range 0 20) (pair (int_range 0 9) (float_range 0.0 100.0)))

let prop_window_monotone =
  QCheck.Test.make ~name:"window count monotone in width" ~count:300
    QCheck.(pair arrivals_gen (pair (float_range 0.0 100.0) (float_range 0.0 50.0)))
    (fun (arrivals, (now, w)) ->
      let l = L.create () in
      List.iter (fun (s, at) -> L.note l ~sender:s ~at) arrivals;
      L.count_in_window l ~now ~width:w
      <= L.count_in_window l ~now ~width:(w +. 10.0))

let prop_shortest_window_consistent =
  QCheck.Test.make ~name:"shortest window contains exactly >= count senders"
    ~count:300
    QCheck.(pair arrivals_gen (int_range 1 5))
    (fun (arrivals, count) ->
      let l = L.create () in
      List.iter (fun (s, at) -> L.note l ~sender:s ~at) arrivals;
      let now = 100.0 in
      match L.shortest_window l ~now ~count with
      | None -> L.count_in_window l ~now ~width:now < count
      | Some alpha ->
          (* pad by an ulp-scale epsilon: [now - (now - at)] need not round
             back to exactly [at] *)
          L.count_in_window l ~now ~width:(alpha +. 1e-9) >= count)

(* --- model test: the sorted-array log vs the naive pre-overhaul one --- *)

(* The original hashtable-only implementation, kept verbatim as a reference
   oracle: every query recomputed its answer with a fold (and
   [shortest_window] with a sort). The optimized log must be observationally
   identical under any operation sequence. *)
module Naive = struct
  type t = (int, float) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let note t ~sender ~at =
    match Hashtbl.find_opt t sender with
    | Some prev when prev >= at -> ()
    | _ -> Hashtbl.replace t sender at

  let corrupt t ~sender ~at = Hashtbl.replace t sender at
  let count t = Hashtbl.length t
  let mem t ~sender = Hashtbl.mem t sender
  let senders t = Hashtbl.fold (fun s _ acc -> s :: acc) t [] |> List.sort compare

  let count_in_window t ~now ~width =
    Hashtbl.fold
      (fun _ at acc -> if at <= now && at >= now -. width then acc + 1 else acc)
      t 0

  let shortest_window t ~now ~count =
    if count <= 0 then Some 0.0
    else begin
      let times =
        Hashtbl.fold (fun _ at acc -> if at <= now then at :: acc else acc) t []
        |> List.sort (fun a b -> compare b a)
      in
      match List.nth_opt times (count - 1) with
      | None -> None
      | Some kth -> Some (now -. kth)
    end

  let latest t =
    Hashtbl.fold
      (fun _ at acc -> match acc with Some m when m >= at -> acc | _ -> Some at)
      t None

  let remove_if t pred =
    let doomed =
      Hashtbl.fold (fun s at acc -> if pred at then s :: acc else acc) t []
    in
    List.iter (Hashtbl.remove t) doomed

  let decay t ~horizon = remove_if t (fun at -> at < horizon)
  let sanitize t ~now = remove_if t (fun at -> at > now)
  let clear t = Hashtbl.reset t
end

type op =
  | Note of int * float
  | Corrupt of int * float
  | Decay of float
  | Sanitize of float
  | Clear

let gen_ops =
  QCheck.Gen.(
    let time = map (fun i -> float_of_int i /. 4.0) (int_bound 16) in
    let sender = int_bound 5 in
    list
      (frequency
         [
           (6, map2 (fun s at -> Note (s, at)) sender time);
           (2, map2 (fun s at -> Corrupt (s, at)) sender time);
           (2, map (fun h -> Decay h) time);
           (2, map (fun n -> Sanitize n) time);
           (1, return Clear);
         ]))

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Note (s, at) -> Printf.sprintf "note %d@%.2f" s at
         | Corrupt (s, at) -> Printf.sprintf "corrupt %d@%.2f" s at
         | Decay h -> Printf.sprintf "decay %.2f" h
         | Sanitize n -> Printf.sprintf "sanitize %.2f" n
         | Clear -> "clear")
       ops)

let arb_ops = QCheck.make ~print:print_ops gen_ops

let agrees l n =
  let times = List.init 10 (fun i -> float_of_int i /. 2.0) in
  L.count l = Naive.count n
  && L.is_empty l = (Naive.count n = 0)
  && senders l = Naive.senders n
  && latest l = Naive.latest n
  && List.for_all (fun s -> mem l ~sender:s = Naive.mem n ~sender:s)
       [ 0; 1; 2; 3; 4; 5 ]
  && List.for_all
       (fun now ->
         List.for_all
           (fun width ->
             L.count_in_window l ~now ~width
             = Naive.count_in_window n ~now ~width)
           [ 0.0; 0.25; 1.0; 3.0 ]
         && List.for_all
              (fun count ->
                L.shortest_window l ~now ~count
                = Naive.shortest_window n ~now ~count)
              [ 0; 1; 2; 3; 7 ])
       times

let prop_matches_naive =
  QCheck.Test.make
    ~name:"optimized log is observationally identical to the naive oracle"
    ~count:500 arb_ops (fun ops ->
      let l = L.create () in
      let n = Naive.create () in
      List.for_all
        (fun op ->
          (match op with
          | Note (sender, at) ->
              L.note l ~sender ~at;
              Naive.note n ~sender ~at
          | Corrupt (sender, at) ->
              L.corrupt l ~sender ~at;
              Naive.corrupt n ~sender ~at
          | Decay horizon ->
              L.decay l ~horizon;
              Naive.decay n ~horizon
          | Sanitize now ->
              L.sanitize l ~now;
              Naive.sanitize n ~now
          | Clear ->
              L.clear l;
              Naive.clear n);
          agrees l n)
        ops)

(* A warmed arrival cycle — notes that insert, refresh and ignore a replay,
   the window queries, a decay and a clear — allocates nothing. Literal
   stamps are static blocks, so passing one boxes nothing even across the
   dev profile's -opaque call boundary. [note]'s sender scan used to be a
   local recursive function, a closure allocated on every arrival. *)
let cycle l =
  L.note l ~sender:3 ~at:1.0;
  L.note l ~sender:1 ~at:1.5;
  L.note l ~sender:3 ~at:2.0;
  L.note l ~sender:1 ~at:1.25;
  L.note l ~sender:6 ~at:2.5;
  ignore (L.count_in_window l ~now:2.5 ~width:1.0);
  ignore (L.count l);
  L.decay l ~horizon:1.75;
  L.clear l

let test_no_allocation () =
  let l = L.create () in
  cycle l;
  let w0 = Gc.minor_words () in
  cycle l;
  cycle l;
  let words = Gc.minor_words () -. w0 in
  check_float "minor words for two warmed cycles" 0.0 words

let suite =
  [
    case "note and count" test_note_and_count;
    case "note keeps max" test_note_keeps_max;
    case "window count" test_window_count;
    case "window excludes future" test_window_excludes_future;
    case "shortest window" test_shortest_window;
    case "shortest window refresh" test_shortest_window_refresh;
    case "decay" test_decay;
    case "sanitize" test_sanitize;
    case "clear" test_clear;
    case "arrival cycle allocates nothing" test_no_allocation;
    Helpers.qcheck prop_window_monotone;
    Helpers.qcheck prop_shortest_window_consistent;
    Helpers.qcheck prop_matches_naive;
  ]
