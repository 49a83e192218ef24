(* Hand-written lexer for KC.

   One pass over the whole source string. Tokens go into a growable
   store and their positions, packed as [line lsl 32 lor col] (exact
   for sources under 4 GiB), into a parallel one; a [Loc.t] is built
   only when the parser asks for one ({!loc}). Both stores are chunks
   of 256 slots, small enough for the minor heap: writing a token is a
   plain store, with no write barrier into a major-heap array, and a
   unit's tokens die young when its parse ends before the next minor
   collection. Beyond the chunks, lexing allocates only the payload of
   identifiers and literals. Keywords are found in place through the
   table {!Token.of_ident_sub} builds once from [Token.keyword_table];
   operators dispatch with one match on their first two bytes. Columns
   count bytes; a tab counts as 1. *)

exception Error of string * Loc.t

type t = { file : string; toks : Token.t array array; pos : int array array; len : int }

let length t = t.len
let token t i = t.toks.(i lsr 8).(i land 255)

let loc t i =
  let p = t.pos.(i lsr 8).(i land 255) in
  Loc.make ~file:t.file ~line:(p lsr 32) ~col:(p land 0xFFFF_FFFF)

type state = {
  src : string;
  name : string; (* file name, for locations *)
  mutable at : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
  mutable buf : Token.t array array;
  mutable bpos : int array array;
  mutable count : int;
}

let loc_of st = Loc.make ~file:st.name ~line:st.line ~col:(st.at - st.bol + 1)

let error st msg = raise (Error (msg, loc_of st))

(* The byte at [i], or NUL past the end. *)
let byte st i = if i < String.length st.src then st.src.[i] else '\000'

let newline st i =
  st.line <- st.line + 1;
  st.bol <- i + 1

let advance st =
  if st.at < String.length st.src then begin
    if st.src.[st.at] = '\n' then newline st st.at;
    st.at <- st.at + 1
  end

let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_char = function 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true | _ -> false
let is_suffix = function 'u' | 'U' | 'l' | 'L' -> true | _ -> false

(* The end of the run of bytes of one class starting at [i]. *)
let rec digits_end s i = if i < String.length s && is_digit s.[i] then digits_end s (i + 1) else i
let rec hex_end s i = if i < String.length s && is_hex_digit s.[i] then hex_end s (i + 1) else i
let rec ident_end s i = if i < String.length s && is_ident_char s.[i] then ident_end s (i + 1) else i
let rec suffix_end s i = if i < String.length s && is_suffix s.[i] then suffix_end s (i + 1) else i

let skip_line st =
  let n = String.length st.src in
  while st.at < n && st.src.[st.at] <> '\n' do
    st.at <- st.at + 1
  done

(* Skip whitespace, line comments and block comments. Also recognizes
   `#` preprocessor-style lines (such as `# file:line` provenance
   markers) and skips them whole. *)
let rec skip_trivia st =
  let src = st.src and i = st.at in
  if i < String.length src then
    match src.[i] with
    | ' ' | '\t' | '\r' ->
        st.at <- i + 1;
        skip_trivia st
    | '\n' ->
        newline st i;
        st.at <- i + 1;
        skip_trivia st
    | '/' when byte st (i + 1) = '/' ->
        skip_line st;
        skip_trivia st
    | '/' when byte st (i + 1) = '*' ->
        skip_block st (i + 2);
        skip_trivia st
    | '#' ->
        skip_line st;
        skip_trivia st
    | _ -> ()

(* [i] is just past the opening slash-star. *)
and skip_block st i =
  let src = st.src in
  if i >= String.length src then begin
    st.at <- i;
    error st "unterminated block comment"
  end
  else
    match src.[i] with
    | '*' when byte st (i + 1) = '/' -> st.at <- i + 2
    | '\n' ->
        newline st i;
        skip_block st (i + 1)
    | _ -> skip_block st (i + 1)

let rec decimal s i j acc = if i = j then acc else decimal s (i + 1) j ((10 * acc) + Char.code s.[i] - 48)

(* Suffixes u/l are accepted and ignored. Up to 18 decimal digits fit
   an [int]; longer and hex literals go through [Int64.of_string], for
   its overflow check. *)
let lex_number st i =
  let src = st.src in
  let hex = src.[i] = '0' && (byte st (i + 1) = 'x' || byte st (i + 1) = 'X') in
  let j = if hex then hex_end src (i + 2) else digits_end src i in
  st.at <- suffix_end src j;
  if (not hex) && j - i <= 18 then Token.INT_LIT (Int64.of_int (decimal src i j 0))
  else
    let text = String.sub src i (j - i) in
    try Token.INT_LIT (Int64.of_string text)
    with Failure _ ->
      error st (Printf.sprintf "bad %s literal %s" (if hex then "hex" else "integer") text)

let lex_ident st i =
  let j = ident_end st.src (i + 1) in
  st.at <- j;
  Token.of_ident_sub st.src i (j - i)

let lex_escape st =
  advance st;
  (* past backslash *)
  let c = byte st st.at in
  advance st;
  match c with
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '0' -> '\000'
  | '\\' -> '\\'
  | '\'' -> '\''
  | '"' -> '"'
  | c -> error st (Printf.sprintf "unknown escape \\%c" c)

let lex_char st =
  advance st;
  (* past opening quote *)
  let c =
    if byte st st.at = '\\' then lex_escape st
    else begin
      let c = byte st st.at in
      advance st;
      c
    end
  in
  if byte st st.at <> '\'' then error st "unterminated char literal";
  advance st;
  Token.CHAR_LIT c

let lex_string st =
  advance st;
  (* past opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    if st.at >= String.length st.src then error st "unterminated string literal"
    else
      match st.src.[st.at] with
      | '"' -> advance st
      | '\\' ->
          Buffer.add_char buf (lex_escape st);
          go ()
      | c ->
          advance st;
          Buffer.add_char buf c;
          go ()
  in
  go ();
  Token.STR_LIT (Buffer.contents buf)

let take st k tok =
  st.at <- st.at + k;
  tok

(* Operators and punctuation, longest match first. None of them holds
   a newline, so [take] moves the column only. *)
let lex_operator st i =
  let third = byte st (i + 2) in
  match (st.src.[i], byte st (i + 1)) with
  | '.', '.' when third = '.' -> take st 3 Token.ELLIPSIS
  | '<', '<' when third = '=' -> take st 3 Token.SHLEQ
  | '>', '>' when third = '=' -> take st 3 Token.SHREQ
  | '-', '>' -> take st 2 Token.ARROW
  | '<', '=' -> take st 2 Token.LE
  | '>', '=' -> take st 2 Token.GE
  | '=', '=' -> take st 2 Token.EQEQ
  | '!', '=' -> take st 2 Token.NE
  | '&', '&' -> take st 2 Token.ANDAND
  | '|', '|' -> take st 2 Token.BARBAR
  | '<', '<' -> take st 2 Token.SHL
  | '>', '>' -> take st 2 Token.SHR
  | '+', '=' -> take st 2 Token.PLUSEQ
  | '-', '=' -> take st 2 Token.MINUSEQ
  | '*', '=' -> take st 2 Token.STAREQ
  | '/', '=' -> take st 2 Token.SLASHEQ
  | '%', '=' -> take st 2 Token.PERCENTEQ
  | '&', '=' -> take st 2 Token.AMPEQ
  | '|', '=' -> take st 2 Token.BAREQ
  | '^', '=' -> take st 2 Token.CARETEQ
  | '+', '+' -> take st 2 Token.PLUSPLUS
  | '-', '-' -> take st 2 Token.MINUSMINUS
  | '(', _ -> take st 1 Token.LPAREN
  | ')', _ -> take st 1 Token.RPAREN
  | '{', _ -> take st 1 Token.LBRACE
  | '}', _ -> take st 1 Token.RBRACE
  | '[', _ -> take st 1 Token.LBRACKET
  | ']', _ -> take st 1 Token.RBRACKET
  | ';', _ -> take st 1 Token.SEMI
  | ',', _ -> take st 1 Token.COMMA
  | '.', _ -> take st 1 Token.DOT
  | '?', _ -> take st 1 Token.QUESTION
  | ':', _ -> take st 1 Token.COLON
  | '+', _ -> take st 1 Token.PLUS
  | '-', _ -> take st 1 Token.MINUS
  | '*', _ -> take st 1 Token.STAR
  | '/', _ -> take st 1 Token.SLASH
  | '%', _ -> take st 1 Token.PERCENT
  | '&', _ -> take st 1 Token.AMP
  | '|', _ -> take st 1 Token.BAR
  | '^', _ -> take st 1 Token.CARET
  | '~', _ -> take st 1 Token.TILDE
  | '!', _ -> take st 1 Token.BANG
  | '<', _ -> take st 1 Token.LT
  | '>', _ -> take st 1 Token.GT
  | '=', _ -> take st 1 Token.EQ
  | c, _ ->
      st.at <- i + 1;
      error st (Printf.sprintf "unexpected character %C" c)

let push st tok line col =
  let c = st.count lsr 8 and k = st.count land 255 in
  if k = 0 then begin
    if c = Array.length st.buf then begin
      st.buf <- Array.append st.buf (Array.make c [||]);
      st.bpos <- Array.append st.bpos (Array.make c [||])
    end;
    st.buf.(c) <- Array.make 256 Token.EOF;
    st.bpos.(c) <- Array.make 256 0
  end;
  st.buf.(c).(k) <- tok;
  st.bpos.(c).(k) <- (line lsl 32) lor col;
  st.count <- st.count + 1

(* Lex a whole source string, ending with an EOF token. Room for chunk
   pointers starts at a token per 3 bytes (the corpus has one per 4.4,
   generated programs one per 3.2). *)
let tokenize ~file src =
  let cap = (String.length src / 768) + 1 in
  let buf = Array.make cap [||] and bpos = Array.make cap [||] in
  let st = { src; name = file; at = 0; line = 1; bol = 0; buf; bpos; count = 0 } in
  let rec go () =
    skip_trivia st;
    let i = st.at in
    let line = st.line and col = i - st.bol + 1 in
    if i >= String.length src then push st Token.EOF line col
    else begin
      let tok =
        match src.[i] with
        | '0' .. '9' -> lex_number st i
        | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_ident st i
        | '\'' -> lex_char st
        | '"' -> lex_string st
        | _ -> lex_operator st i
      in
      push st tok line col;
      go ()
    end
  in
  go ();
  { file; toks = st.buf; pos = st.bpos; len = st.count }
