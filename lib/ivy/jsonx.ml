(* Minimal JSON for the serve daemon's newline-delimited RPC framing.

   The repo renders its report JSON by hand (Report_fmt, Diag) and has
   no JSON dependency; the daemon needs to *parse* requests too, so
   this is the one place with a real (small) parser. [Raw] lets a
   response splice an already-rendered report string without
   re-parsing it. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string  (** spliced verbatim when rendering; never parsed *)

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let quote (s : string) : string = "\"" ^ Engine.Diag.json_escape s ^ "\""

let render_num (f : float) : string =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let rec render (j : t) : string =
  match j with
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num f -> render_num f
  | Str s -> quote s
  | List l -> "[" ^ String.concat "," (List.map render l) ^ "]"
  | Obj kvs ->
      "{" ^ String.concat "," (List.map (fun (k, v) -> quote k ^ ":" ^ render v) kvs) ^ "}"
  | Raw s -> s

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

type cursor = { src : string; mutable pos : int }

let fail cur msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))
let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let skip_ws cur =
  while
    cur.pos < String.length cur.src
    && match cur.src.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    cur.pos <- cur.pos + 1
  done

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> cur.pos <- cur.pos + 1
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let parse_lit cur lit v =
  if
    cur.pos + String.length lit <= String.length cur.src
    && String.sub cur.src cur.pos (String.length lit) = lit
  then begin
    cur.pos <- cur.pos + String.length lit;
    v
  end
  else fail cur (Printf.sprintf "expected %s" lit)

let parse_string cur : string =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> cur.pos <- cur.pos + 1
    | Some '\\' -> (
        cur.pos <- cur.pos + 1;
        match peek cur with
        | None -> fail cur "unterminated escape"
        | Some c ->
            cur.pos <- cur.pos + 1;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if cur.pos + 4 > String.length cur.src then fail cur "truncated \\u escape";
                let hex = String.sub cur.src cur.pos 4 in
                cur.pos <- cur.pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex) with _ -> fail cur "bad \\u escape"
                in
                (* UTF-8 encode the code point (no surrogate pairing:
                   the RPC payloads are ASCII in practice). *)
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
            | c -> fail cur (Printf.sprintf "bad escape '\\%c'" c));
            go ())
    | Some c ->
        cur.pos <- cur.pos + 1;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur : float =
  let start = cur.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while
    cur.pos < String.length cur.src && is_num_char cur.src.[cur.pos]
  do
    cur.pos <- cur.pos + 1
  done;
  if cur.pos = start then fail cur "expected number";
  match float_of_string_opt (String.sub cur.src start (cur.pos - start)) with
  | Some f -> f
  | None -> fail cur "bad number"

let rec parse_value cur : t =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '"' -> Str (parse_string cur)
  | Some '{' ->
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if peek cur = Some '}' then begin
        cur.pos <- cur.pos + 1;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws cur;
          let k = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              cur.pos <- cur.pos + 1;
              members ((k, v) :: acc)
          | Some '}' ->
              cur.pos <- cur.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> fail cur "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some '[' ->
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if peek cur = Some ']' then begin
        cur.pos <- cur.pos + 1;
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              cur.pos <- cur.pos + 1;
              elements (v :: acc)
          | Some ']' ->
              cur.pos <- cur.pos + 1;
              List.rev (v :: acc)
          | _ -> fail cur "expected ',' or ']'"
        in
        List (elements [])
      end
  | Some 't' -> parse_lit cur "true" (Bool true)
  | Some 'f' -> parse_lit cur "false" (Bool false)
  | Some 'n' -> parse_lit cur "null" Null
  | Some _ -> Num (parse_number cur)

let parse (s : string) : t =
  let cur = { src = s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let member (k : string) (j : t) : t option =
  match j with Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_int_opt = function Num f when Float.is_integer f -> Some (int_of_float f) | _ -> None
let to_list_opt = function List l -> Some l | _ -> None
