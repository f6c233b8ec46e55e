(* Minimal JSON encoder/decoder.

   Just enough JSON for the trace/metrics JSONL export and the fuzz replay
   codecs. Kept dependency-free on purpose; numbers are all floats, strings
   are escaped per RFC 8259 (with non-ASCII bytes passed through verbatim,
   which is valid when the input is UTF-8 — ours is). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* %.17g is lossless for doubles; trim to %g-style when exact. *)
let number_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x ->
      if not (Float.is_finite x) then
        (* NaN/inf are not JSON; encode as null like most exporters do *)
        Buffer.add_string buf "null"
      else Buffer.add_string buf (number_to_string x)
  | Str s -> escape_to buf s
  | Arr l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf v)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  to_buffer buf v;
  Buffer.contents buf

(* ----- parsing ---------------------------------------------------------- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let error c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))
let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> error c (Printf.sprintf "expected %c" ch)

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else error c (Printf.sprintf "expected %s" word)

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.src then error c "unterminated string";
    let ch = c.src.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents buf
    | '\\' ->
        (if c.pos >= String.length c.src then error c "truncated escape";
         let e = c.src.[c.pos] in
         c.pos <- c.pos + 1;
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
             if c.pos + 4 > String.length c.src then error c "truncated \\u";
             let code = int_of_string ("0x" ^ String.sub c.src c.pos 4) in
             c.pos <- c.pos + 4;
             (* we only emit \u00xx for control chars; decode the BMP point
                as UTF-8 so round-trips are exact for what we produce *)
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else if code < 0x800 then begin
               Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             end
             else begin
               Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
               Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             end
         | _ -> error c "bad escape");
        go ()
    | ch -> Buffer.add_char buf ch; go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < String.length c.src && is_num_char c.src.[c.pos] do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then error c "expected number";
  match float_of_string_opt (String.sub c.src start (c.pos - start)) with
  | Some x -> x
  | None -> error c "bad number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some '[' ->
      expect c '[';
      skip_ws c;
      if peek c = Some ']' then begin c.pos <- c.pos + 1; Arr [] end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> c.pos <- c.pos + 1; items (v :: acc)
          | Some ']' -> c.pos <- c.pos + 1; Arr (List.rev (v :: acc))
          | _ -> error c "expected , or ]"
        in
        items []
      end
  | Some '{' ->
      expect c '{';
      skip_ws c;
      if peek c = Some '}' then begin c.pos <- c.pos + 1; Obj [] end
      else begin
        let rec fields acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> c.pos <- c.pos + 1; fields ((k, v) :: acc)
          | Some '}' -> c.pos <- c.pos + 1; Obj (List.rev ((k, v) :: acc))
          | _ -> error c "expected , or }"
        in
        fields []
      end
  | Some _ -> Num (parse_number c)

let of_string s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then error c "trailing garbage";
  v

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_float_opt = function Num x -> Some x | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_int_opt = function Num x when Float.is_integer x -> Some (int_of_float x) | _ -> None

(* Field readers for the replay codecs (Spec, Workload): each names the
   field in the message it raises. *)
module Read = struct
  exception Decode of string

  let fail fmt = Printf.ksprintf (fun s -> raise (Decode s)) fmt

  let get_field name j =
    match member name j with Some v -> v | None -> fail "missing field %S" name

  let get_float name j =
    match to_float_opt (get_field name j) with
    | Some x -> x
    | None -> fail "field %S: expected number" name

  let get_int name j =
    match to_int_opt (get_field name j) with
    | Some x -> x
    | None -> fail "field %S: expected integer" name

  let get_str name j =
    match to_string_opt (get_field name j) with
    | Some s -> s
    | None -> fail "field %S: expected string" name

  let get_list name j =
    match get_field name j with
    | Arr l -> l
    | _ -> fail "field %S: expected array" name

  let list_of what to_x name j =
    List.map
      (fun v ->
        match to_x v with
        | Some x -> x
        | None -> fail "field %S: expected %s" name what)
      (get_list name j)

  let str_list = list_of "strings" to_string_opt
  let int_list = list_of "integers" to_int_opt
  let float_list = list_of "numbers" to_float_opt
end

let write_file path text =
  try Ok (Out_channel.with_open_text path (fun oc -> output_string oc text; flush oc))
  with Sys_error e ->
    (* a failed open reads "PATH: REASON"; keep the reason *)
    let p = path ^ ": " in
    let lp = String.length p in
    Error (if String.starts_with ~prefix:p e then String.sub e lp (String.length e - lp) else e)
