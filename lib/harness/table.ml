(* Aligned plain-text tables for experiment output. *)

type t = { header : string list; mutable rows : string list list }

let create header = { header; rows = [] }

(* Newest first, which is also the order rows print in. *)
let add_row t row = t.rows <- row :: t.rows

let widths t =
  let rows = t.header :: t.rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 rows in
  let w = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> w.(i) <- max w.(i) (String.length cell)) row)
    rows;
  w

let pad width s = s ^ String.make (max 0 (width - String.length s)) ' '

let render t =
  let w = widths t in
  let line row =
    row
    |> List.mapi (fun i cell -> pad w.(i) cell)
    |> String.concat "  "
    |> fun s -> String.trim (" " ^ s) |> fun s -> s
  in
  let sep =
    Array.to_list w |> List.map (fun n -> String.make n '-') |> String.concat "  "
  in
  String.concat "\n" ((line t.header :: sep :: List.map line t.rows) @ [ "" ])

let print t = print_string (render t)

(* Numeric cell helpers. *)
let f3 x = Printf.sprintf "%.3f" x
let ms x = Printf.sprintf "%.3f" (1000.0 *. x)
let in_d ~d x = Printf.sprintf "%.2fd" (x /. d)
let yn b = if b then "yes" else "NO"
