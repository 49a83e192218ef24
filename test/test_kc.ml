(* Tests for the KC frontend: lexer, parser, type checker, layout. *)

let contains_sub ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let parse_program src = Kc.Typecheck.check_sources [ ("test.kc", src) ]

let check_ok name src =
  Alcotest.test_case name `Quick (fun () ->
      try ignore (parse_program src)
      with
      | Kc.Typecheck.Type_error (msg, loc) ->
          Alcotest.failf "type error: %s at %s" msg (Kc.Loc.to_string loc)
      | Kc.Parser.Error (msg, loc) ->
          Alcotest.failf "parse error: %s at %s" msg (Kc.Loc.to_string loc)
      | Kc.Lexer.Error (msg, loc) ->
          Alcotest.failf "lex error: %s at %s" msg (Kc.Loc.to_string loc))

let check_type_error name src =
  Alcotest.test_case name `Quick (fun () ->
      match ignore (parse_program src) with
      | () -> Alcotest.failf "expected a type error, but %s checked" name
      | exception Kc.Typecheck.Type_error _ -> ())

(* Each source must fail type checking with [msg] on [line]. *)
let check_located name cases =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun (msg, line, src) ->
          match ignore (parse_program src) with
          | () -> Alcotest.failf "expected %S, but %S checked" msg src
          | exception Kc.Typecheck.Type_error (m, loc) ->
              Alcotest.(check (pair string int)) src (msg, line) (m, loc.Kc.Loc.line))
        cases)

let check_parse_error name src =
  Alcotest.test_case name `Quick (fun () ->
      match ignore (parse_program src) with
      | () -> Alcotest.failf "expected a parse error, but %s parsed" name
      | exception Kc.Parser.Error _ -> ()
      | exception Kc.Lexer.Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

(* A token store as a [(token, loc)] list, the reference lexer's form. *)
let located t = List.init (Kc.Lexer.length t) (fun i -> (Kc.Lexer.token t i, Kc.Lexer.loc t i))

let lex_tokens src = Kc.Lexer.tokenize ~file:"t" src |> located |> List.map fst

let test_lex_simple () =
  let toks = lex_tokens "int x = 42;" in
  Alcotest.(check int) "token count" 6 (List.length toks);
  match toks with
  | [ Kc.Token.KW_INT; Kc.Token.IDENT "x"; Kc.Token.EQ; Kc.Token.INT_LIT 42L; Kc.Token.SEMI; Kc.Token.EOF ] ->
      ()
  | _ -> Alcotest.fail "unexpected tokens"

let test_lex_operators () =
  let toks = lex_tokens "a <<= b >>= c << >> <= >= == != && || -> ++ -- ..." in
  let has t = List.exists (Kc.Token.equal t) toks in
  List.iter
    (fun t -> Alcotest.(check bool) (Kc.Token.to_string t) true (has t))
    [
      Kc.Token.SHLEQ; Kc.Token.SHREQ; Kc.Token.SHL; Kc.Token.SHR; Kc.Token.LE; Kc.Token.GE;
      Kc.Token.EQEQ; Kc.Token.NE; Kc.Token.ANDAND; Kc.Token.BARBAR; Kc.Token.ARROW;
      Kc.Token.PLUSPLUS; Kc.Token.MINUSMINUS; Kc.Token.ELLIPSIS;
    ]

let test_lex_literals () =
  let toks = lex_tokens "0x1F 'a' '\\n' \"hi\\t\" 100UL" in
  match toks with
  | [ Kc.Token.INT_LIT 31L; Kc.Token.CHAR_LIT 'a'; Kc.Token.CHAR_LIT '\n';
      Kc.Token.STR_LIT "hi\t"; Kc.Token.INT_LIT 100L; Kc.Token.EOF ] ->
      ()
  | _ -> Alcotest.fail "unexpected literal tokens"

let test_lex_comments () =
  let toks = lex_tokens "a /* multi\nline */ b // eol\nc # preproc\nd" in
  Alcotest.(check int) "4 idents + eof" 5 (List.length toks)

let test_lex_locations () =
  let loc_b = Kc.Lexer.loc (Kc.Lexer.tokenize ~file:"f" "a\n  b") 1 in
  Alcotest.(check int) "line of b" 2 loc_b.Kc.Loc.line;
  Alcotest.(check int) "col of b" 3 loc_b.Kc.Loc.col

(* ------------------------------------------------------------------ *)
(* Reference-lexer differential                                        *)
(* ------------------------------------------------------------------ *)

(* The reference model: the earlier list-building lexer, its code kept
   verbatim down to the keyword lookup by [List.assoc]. *)
module Ref_lexer = struct
  module Loc = Kc.Loc

  module Token = struct
    include Kc.Token

    let of_ident s =
      match List.assoc_opt s keyword_table with Some t -> t | None -> IDENT s
  end

  exception Error = Kc.Lexer.Error

  type state = {
    src : string;
    file : string;
    mutable pos : int;
    mutable line : int;
    mutable bol : int; (* offset of beginning of current line *)
  }

  let make ~file src = { src; file; pos = 0; line = 1; bol = 0 }

  let loc_of st = Loc.make ~file:st.file ~line:st.line ~col:(st.pos - st.bol + 1)

  let error st msg = raise (Error (msg, loc_of st))

  let at_end st = st.pos >= String.length st.src

  let peek_char st = if at_end st then '\000' else st.src.[st.pos]

  let peek_char2 st =
    if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

  let advance st =
    if not (at_end st) then begin
      if st.src.[st.pos] = '\n' then begin
        st.line <- st.line + 1;
        st.bol <- st.pos + 1
      end;
      st.pos <- st.pos + 1
    end

  let is_digit c = c >= '0' && c <= '9'
  let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_ident_char c = is_ident_start c || is_digit c

  let rec skip_trivia st =
    if at_end st then ()
    else
      match peek_char st with
      | ' ' | '\t' | '\r' | '\n' ->
          advance st;
          skip_trivia st
      | '/' when peek_char2 st = '/' ->
          while (not (at_end st)) && peek_char st <> '\n' do
            advance st
          done;
          skip_trivia st
      | '/' when peek_char2 st = '*' ->
          advance st;
          advance st;
          let rec close () =
            if at_end st then error st "unterminated block comment"
            else if peek_char st = '*' && peek_char2 st = '/' then begin
              advance st;
              advance st
            end
            else begin
              advance st;
              close ()
            end
          in
          close ();
          skip_trivia st
      | '#' ->
          while (not (at_end st)) && peek_char st <> '\n' do
            advance st
          done;
          skip_trivia st
      | _ -> ()

  let lex_number st =
    let start = st.pos in
    if peek_char st = '0' && (peek_char2 st = 'x' || peek_char2 st = 'X') then begin
      advance st;
      advance st;
      while is_hex_digit (peek_char st) do
        advance st
      done;
      let text = String.sub st.src start (st.pos - start) in
      while peek_char st = 'u' || peek_char st = 'U' || peek_char st = 'l' || peek_char st = 'L' do
        advance st
      done;
      try Token.INT_LIT (Int64.of_string text)
      with Failure _ -> error st (Printf.sprintf "bad hex literal %s" text)
    end
    else begin
      while is_digit (peek_char st) do
        advance st
      done;
      let text = String.sub st.src start (st.pos - start) in
      while peek_char st = 'u' || peek_char st = 'U' || peek_char st = 'l' || peek_char st = 'L' do
        advance st
      done;
      try Token.INT_LIT (Int64.of_string text)
      with Failure _ -> error st (Printf.sprintf "bad integer literal %s" text)
    end

  let lex_escape st =
    advance st;
    let c = peek_char st in
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
    let c =
      if peek_char st = '\\' then lex_escape st
      else begin
        let c = peek_char st in
        advance st;
        c
      end
    in
    if peek_char st <> '\'' then error st "unterminated char literal";
    advance st;
    Token.CHAR_LIT c

  let lex_string st =
    advance st;
    let buf = Buffer.create 16 in
    let rec go () =
      if at_end st then error st "unterminated string literal"
      else
        match peek_char st with
        | '"' -> advance st
        | '\\' -> Buffer.add_char buf (lex_escape st); go ()
        | c ->
            advance st;
            Buffer.add_char buf c;
            go ()
    in
    go ();
    Token.STR_LIT (Buffer.contents buf)

  let lex_ident st =
    let start = st.pos in
    while is_ident_char (peek_char st) do
      advance st
    done;
    Token.of_ident (String.sub st.src start (st.pos - start))

  let lex_operator st =
    let two a b tok = if peek_char st = a && peek_char2 st = b then Some tok else None in
    let three =
      if
        st.pos + 2 < String.length st.src
        && peek_char st = '.'
        && peek_char2 st = '.'
        && st.src.[st.pos + 2] = '.'
      then Some Token.ELLIPSIS
      else if
        st.pos + 2 < String.length st.src
        && peek_char st = '<'
        && peek_char2 st = '<'
        && st.src.[st.pos + 2] = '='
      then Some Token.SHLEQ
      else if
        st.pos + 2 < String.length st.src
        && peek_char st = '>'
        && peek_char2 st = '>'
        && st.src.[st.pos + 2] = '='
      then Some Token.SHREQ
      else None
    in
    match three with
    | Some tok ->
        advance st;
        advance st;
        advance st;
        tok
    | None -> (
        let candidates =
          [
            two '-' '>' Token.ARROW;
            two '<' '=' Token.LE;
            two '>' '=' Token.GE;
            two '=' '=' Token.EQEQ;
            two '!' '=' Token.NE;
            two '&' '&' Token.ANDAND;
            two '|' '|' Token.BARBAR;
            two '<' '<' Token.SHL;
            two '>' '>' Token.SHR;
            two '+' '=' Token.PLUSEQ;
            two '-' '=' Token.MINUSEQ;
            two '*' '=' Token.STAREQ;
            two '/' '=' Token.SLASHEQ;
            two '%' '=' Token.PERCENTEQ;
            two '&' '=' Token.AMPEQ;
            two '|' '=' Token.BAREQ;
            two '^' '=' Token.CARETEQ;
            two '+' '+' Token.PLUSPLUS;
            two '-' '-' Token.MINUSMINUS;
          ]
        in
        match List.find_opt Option.is_some candidates with
        | Some (Some tok) ->
            advance st;
            advance st;
            tok
        | _ ->
            let c = peek_char st in
            advance st;
            let tok =
              match c with
              | '(' -> Token.LPAREN
              | ')' -> Token.RPAREN
              | '{' -> Token.LBRACE
              | '}' -> Token.RBRACE
              | '[' -> Token.LBRACKET
              | ']' -> Token.RBRACKET
              | ';' -> Token.SEMI
              | ',' -> Token.COMMA
              | '.' -> Token.DOT
              | '?' -> Token.QUESTION
              | ':' -> Token.COLON
              | '+' -> Token.PLUS
              | '-' -> Token.MINUS
              | '*' -> Token.STAR
              | '/' -> Token.SLASH
              | '%' -> Token.PERCENT
              | '&' -> Token.AMP
              | '|' -> Token.BAR
              | '^' -> Token.CARET
              | '~' -> Token.TILDE
              | '!' -> Token.BANG
              | '<' -> Token.LT
              | '>' -> Token.GT
              | '=' -> Token.EQ
              | c -> error st (Printf.sprintf "unexpected character %C" c)
            in
            tok)

  let next_token st =
    skip_trivia st;
    let loc = loc_of st in
    if at_end st then (Token.EOF, loc)
    else
      let c = peek_char st in
      let tok =
        if is_digit c then lex_number st
        else if is_ident_start c then lex_ident st
        else if c = '\'' then lex_char st
        else if c = '"' then lex_string st
        else lex_operator st
      in
      (tok, loc)

  let tokenize ~file src =
    let st = make ~file src in
    let acc = ref [] in
    let rec go () =
      let tok, loc = next_token st in
      acc := (tok, loc) :: !acc;
      if tok <> Token.EOF then go ()
    in
    go ();
    Array.of_list (List.rev !acc)
end

(* What a lexer makes of a source: its located tokens, or its error.
   Tokens print with their payload and [file:line:col]. *)
let lex_outcome tokenize src =
  match tokenize src with
  | toks ->
      Ok (List.map (fun (t, l) -> Kc.Token.to_string t ^ " @ " ^ Kc.Loc.to_string l) toks)
  | exception Kc.Lexer.Error (msg, loc) -> Error (msg ^ " at " ^ Kc.Loc.to_string loc)

let same_as_reference ~file src =
  let reference = lex_outcome (fun s -> Array.to_list (Ref_lexer.tokenize ~file s)) src in
  let actual = lex_outcome (fun s -> located (Kc.Lexer.tokenize ~file s)) src in
  reference = actual

let check_same ~file src =
  if not (same_as_reference ~file src) then
    Alcotest.failf "lexer differs from the reference on %s (%S)" file
      (if String.length src > 200 then String.sub src 0 200 ^ "..." else src)

let test_ref_corpus () =
  List.iter
    (fun fixed_frees ->
      List.iter (fun (file, src) -> check_same ~file src) (Kernel.Workloads.sources ~fixed_frees ()))
    [ true; false ]

let test_ref_generated () =
  for i = 1 to 300 do
    check_same ~file:(Printf.sprintf "case%d.kc" i)
      (Gen.Prog.render (Gen.Fuzz.case_program ~seed:(1 + (i mod 7)) i))
  done

(* Inputs on every error path and edge of the byte classes. *)
let edge_inputs =
  [
    "a /* never closed";
    "a /* x\n y *";
    "\"open string";
    "\"esc at end\\";
    "'";
    "'a";
    "'\\q'";
    "'\\";
    "0x";
    "0xg";
    "99999999999999999999";
    "0xFFFFFFFFFFFFFFFF 0x1FFFFFFFFFFFFFFFF";
    "x...";
    "x <<=";
    "x >>=";
    "..";
    "<<";
    "#";
    "# line\n#\n a # b\nc";
    "\ta\t@";
    "a\000b";
    "a \128 b";
    "\255";
    "\"s\nt\" \n @";
    "'\n' @";
    "12abc 0x1fUL 7lu";
    "a\r\nb";
    "/";
    "/* */ / /* */";
    "";
  ]

let test_ref_edges () = List.iter (check_same ~file:"edge.kc") edge_inputs

(* A KC-biased alphabet: keywords, operators (longest first and each
   prefix), literal and comment openers, whitespace including tabs,
   NUL and bytes from 0x80 up, so generated inputs run into every
   error path as well as the common ones. *)
let kc_fragments =
  [|
    "int"; "x"; "_y1"; "__count"; "struct"; "return"; "0"; "42"; "0x"; "0x1F"; "0X";
    "99999999999999999999"; "7UL"; "..."; ".."; "."; "<<="; ">>="; "<<"; ">>"; "<"; ">";
    "="; "=="; "!="; "->"; "-"; "--"; "++"; "+="; "&&"; "||"; "&"; "|"; "^="; "(";
    ")"; "{"; "}"; "["; "]"; ";"; ","; "?"; ":"; "~"; "@"; "$"; "`"; "/*"; "*/"; "/";
    "//"; "*"; "#"; "# 12 \"f.kc\"\n"; "\""; "'"; "\\"; "\\n"; "'a'"; "'\\0'"; "\"s\"";
    " "; " "; "\t"; "\n"; "\n"; "\r"; "\000"; "\128"; "\200"; "\255";
  |]

let gen_kc_source =
  QCheck2.Gen.(
    let fragment = map (Array.get kc_fragments) (int_bound (Array.length kc_fragments - 1)) in
    let body = map (String.concat "") (list_size (int_bound 40) fragment) in
    (* About half the inputs end on a multi-byte operator or an
       opener, so the end-of-input checks run. *)
    let tail = oneofl [ ""; "..."; "<<="; ">>="; "/*"; "\""; "'"; "0x"; "#"; "'\\" ] in
    map2 ( ^ ) body (frequency [ (1, return ""); (1, tail) ]))

let prop_matches_reference =
  QCheck2.Test.make ~name:"ref: KC-biased random input" ~count:3000
    ~print:(Printf.sprintf "%S") gen_kc_source (same_as_reference ~file:"q.kc")

(* ------------------------------------------------------------------ *)
(* Allocation fence                                                    *)
(* ------------------------------------------------------------------ *)

(* Lexing allocates per token its share of the 256-slot chunks and the
   payload of identifiers and literals. A (token, loc) pair, a list cell
   and a Loc.t per token, as the reference lexer builds, come to ~51
   minor words a token. *)
let test_lex_alloc () =
  let sources = Kernel.Workloads.sources () in
  let lex () = List.fold_left (fun n (file, src) -> n + Kc.Lexer.length (Kc.Lexer.tokenize ~file src)) 0 sources in
  ignore (lex ());
  let w0 = Gc.minor_words () in
  let tokens = lex () in
  let per_token = (Gc.minor_words () -. w0) /. float_of_int tokens in
  if per_token > 12.0 then
    Alcotest.failf "lexing the corpus took %.1f minor words per token (fence: 12)" per_token

(* Type checking allocates the IR it returns, about 6.9 words a token
   on the corpus (123.6 k reachable words), plus scopes, hoisting lists
   and conversions. Appending each global and function to the end of
   the program's lists, quadratic in their number, took it to 15.9. *)
let test_typecheck_alloc () =
  let sources = Kernel.Workloads.sources () in
  let tokens =
    List.fold_left
      (fun n (file, src) -> n + Kc.Lexer.length (Kc.Lexer.tokenize ~file src))
      0 sources
  in
  let parsed = Kc.Typecheck.parse_units sources in
  ignore (Kc.Typecheck.check_units parsed);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Kc.Typecheck.check_units parsed));
  let per_token = (Gc.minor_words () -. w0) /. float_of_int tokens in
  if per_token > 14.0 then
    Alcotest.failf "type checking the corpus took %.1f minor words per token (fence: 14)"
      per_token

(* ------------------------------------------------------------------ *)
(* Parser + typechecker acceptance                                    *)
(* ------------------------------------------------------------------ *)

let accept_cases =
  [
    check_ok "minimal function" "int main(void) { return 0; }";
    check_ok "arith and locals"
      "int f(int a, int b) { int c = a * 2 + b % 3; return c - (a << 1); }";
    check_ok "pointers and deref"
      "int g(int *p) { int x = *p; *p = x + 1; return *p; }";
    check_ok "struct def and access"
      "struct point { int x; int y; };\n\
       int norm1(struct point *p) { return p->x + p->y; }";
    check_ok "nested struct"
      "struct inner { int v; };\n\
       struct outer { struct inner in; int tag; };\n\
       int get(struct outer *o) { return o->in.v; }";
    check_ok "arrays"
      "int sum(void) { int a[8]; int i; int s = 0; for (i = 0; i < 8; i++) { a[i] = i; s += a[i]; } return s; }";
    check_ok "typedef" "typedef unsigned long size_t;\nsize_t id(size_t n) { return n; }";
    check_ok "enum" "enum color { RED, GREEN = 5, BLUE };\nint f(void) { return BLUE; }";
    check_ok "function pointers"
      "int add1(int x) { return x + 1; }\n\
       int apply(int (*f)(int), int v) { return f(v); }\n\
       int main(void) { return apply(add1, 41); }";
    check_ok "dispatch table"
      "int r(void) { return 1; } int w(void) { return 2; }\n\
       struct ops { int (*do_read)(void); int (*do_write)(void); };\n\
       struct ops my_ops = { r, w };\n\
       int main(void) { return my_ops.do_read(); }";
    check_ok "while and break"
      "int f(int n) { int i = 0; while (1) { if (i >= n) { break; } i++; } return i; }";
    check_ok "do while" "int f(int n) { int i = 0; do { i++; } while (i < n); return i; }";
    check_ok "switch"
      "int f(int x) { switch (x) { case 0: return 10; case 1: case 2: return 20; default: return 30; } }";
    check_ok "conditional expr" "int max(int a, int b) { return a > b ? a : b; }";
    check_ok "short circuit" "int f(int *p) { if (p != 0 && *p > 0) { return 1; } return 0; }";
    check_ok "string literal" "void puts_(char * __nullterm s);\nvoid f(void) { puts_(\"hello\"); }";
    check_ok "count annotation"
      "int sum(int * __count(n) buf, int n) { int i; int s = 0; for (i = 0; i < n; i++) { s += buf[i]; } return s; }";
    check_ok "count on struct field"
      "struct vec { int len; int * __count(len) data; };\n\
       int first(struct vec *v) { return v->data[0]; }";
    check_ok "nullterm annotation"
      "int my_strlen(char * __nullterm s) { int n = 0; while (*s != 0) { s = s + 1; n++; } return n; }";
    check_ok "opt annotation" "int f(int * __opt p) { if (p == 0) { return -1; } return *p; }";
    check_ok "trusted block" "int f(int *p) { __trusted { return *(p + 100); } }";
    check_ok "function annots"
      "void might_sleep(void) __blocking;\n\
       void *kmalloc_(unsigned long size, int flags) __blocking_if_gfp_wait;\n\
       int f(void) { might_sleep(); return 0; }";
    check_ok "void pointer conversions"
      "void *alloc(unsigned long n);\n\
       int *get(void) { int *p = alloc(4); return p; }";
    check_ok "sizeof"
      "struct s { int a; long b; };\nunsigned long f(void) { return sizeof(struct s) + sizeof(int); }";
    check_ok "casts" "long f(int *p) { return (long)p; }";
    check_ok "delayed free scope"
      "void kfree_(void *p);\n\
       void f(int *a, int *b) { __delayed_free { kfree_(a); kfree_(b); } }";
    check_ok "recursive struct"
      "struct node { int v; struct node *next; };\n\
       int len(struct node *n) { int k = 0; while (n != 0) { k++; n = n->next; } return k; }";
    check_ok "globals with init"
      "int counter = 3;\nint arr[4] = { 1, 2, 3, 4 };\nint get(void) { return counter + arr[2]; }";
    check_ok "unions" "union u { int i; char c; };\nint f(union u *p) { return p->i; }";
    check_ok "compound assign ops"
      "int f(int x) { x += 1; x -= 2; x *= 3; x /= 2; x %= 7; x <<= 1; x >>= 1; x &= 15; x |= 1; x ^= 2; return x; }";
    check_ok "pre/post incr as values"
      "int f(void) { int i = 0; int a = i++; int b = ++i; return a + b + i; }";
    check_ok "address of local" "int f(void) { int x = 5; int *p = &x; return *p; }";
    check_ok "static functions"
      "static int helper(void) { return 1; }\nint main(void) { return helper(); }";
    check_ok "variadic extern"
      "void printk(char * __nullterm fmt, ...);\nvoid f(void) { printk(\"x=%d\", 42); }";
    check_ok "long literals" "long f(void) { return 4294967296; }";
    check_ok "double pointer"
      "int f(int **pp) { int *p = *pp; return *p; }";
    check_ok "array of function pointers"
      "int a1(int x) { return x; } int a2(int x) { return x + x; }\n\
       int (*dispatch[2])(int) = { a1, a2 };\n\
       int call0(void) { return dispatch[0](5); }";
    check_ok "function returning pointer"
      "int g;\nint *addr_of_g(void) { return &g; }\nint f(void) { int *p = addr_of_g(); return *p; }";
    check_ok "pointer to function returning pointer"
      "int g;\nint *getp(void) { return &g; }\n\
       int f(void) { int *(*fp)(void) = getp; int *p = fp(); return *p; }";
    check_ok "nested ternary right assoc"
      "int f(int a) { return a == 0 ? 1 : a == 1 ? 2 : 3; }";
    check_ok "struct containing array of structs"
      "struct cell { int v; };\nstruct grid { struct cell cells[4]; int n; };\n\
       int f(struct grid *g) { return g->cells[2].v + g->n; }";
    check_ok "chained field and index"
      "struct inner2 { int xs[3]; };\nstruct outer2 { struct inner2 in2; };\n\
       int f(struct outer2 *o) { return o->in2.xs[1]; }";
    check_ok "parenthesized declarator no-op" "int f(void) { int (x) = 3; return x; }";
    check_ok "hex and shifts mix" "int f(void) { return (0xFF << 4) | 0x0F; }";
    check_ok "deep expression nesting"
      "int f(int a, int b, int c) { return ((a + b) * (b + c) - (c * a)) % ((a | 1) + (b & 7) + 1); }";
    check_ok "const qualifiers ignored"
      "int f(const int x, const char * __nullterm s) { return x + *s; }";
    check_ok "unsigned comparisons"
      "int f(unsigned int a, unsigned int b) { if (a < b) { return -1; } if (a > b) { return 1; } return 0; }";
    check_ok "empty statement and empty blocks" "int f(void) { ; { } ; return 0; }";
    check_ok "definition matching its prototype"
      "int f(int a, char *p);\nint f(int a, char *p) { return a; }\n\
       int g(void);\nint g(void) { return f(1, 0); }";
    check_ok "repeated matching prototypes"
      "int f(int a, char * __nullterm p);\nint f(int b, char *q);\n\
       int f(int a, char *p) { return a; }\nint f(int a, char *p);";
  ]

let reject_cases =
  [
    check_type_error "unknown variable" "int f(void) { return y; }";
    check_type_error "unknown function" "int f(void) { return g(); }";
    check_type_error "wrong arity" "int g(int x) { return x; }\nint f(void) { return g(); }";
    check_type_error "call of non-function" "int f(int x) { return x(); }";
    check_type_error "deref of int" "int f(int x) { return *x; }";
    check_type_error "field on int" "int f(int x) { return x.bad; }";
    check_type_error "unknown field" "struct s { int a; };\nint f(struct s *p) { return p->b; }";
    check_type_error "implicit ptr type mix"
      "struct a { int x; }; struct b { int y; };\n\
       struct a *f(struct b *p) { return p; }";
    check_type_error "void function used as value" "void g(void);\nint f(void) { return g(); }";
    check_type_error "return value from void" "void f(void) { return 3; }";
    check_type_error "count on non-integer"
      "int f(int * __count(p) buf, int *p) { return buf[0]; }";
    Alcotest.test_case "call in a global initializer is located" `Quick (fun () ->
        match parse_program "int f(void);\nint g = f();" with
        | _ -> Alcotest.fail "expected a type error"
        | exception Kc.Typecheck.Type_error (_, loc) ->
            Alcotest.(check (pair string int)) "at the initializer" ("test.kc", 2)
              (loc.Kc.Loc.file, loc.Kc.Loc.line));
    check_type_error "post-increment in a global initializer" "int x;\nint g = x++;";
    check_type_error "call in loop condition"
      "int g(void);\nint f(void) { while (g()) { } return 0; }";
    check_type_error "sizeof(void)" "int f(void) { return sizeof(void); }";
    check_type_error "void struct field"
      "struct s { void x; }; int f(void) { return sizeof(struct s); }";
    check_type_error "void global" "void x;\nlong f(void) { return 7; }";
    check_type_error "array of void, local" "int f(void) { void v[3]; return 0; }";
    check_type_error "array of void, field" "struct s { void x[2]; };";
    check_type_error "struct holding itself by value" "struct s { int a; struct s x; };";
    check_type_error "structs holding each other by value"
      "struct a { struct b y[2]; }; struct b { struct a x; };";
    (* The VM steps a pointer by its pointee's size, which void and
       function types do not have. *)
    check_located "pointer arithmetic needs a sized pointee"
      (List.map
         (fun body ->
           ("sizeof(void)", 1, "long f(void) { char buf[4]; void *p; void *q; p = buf; q = buf; "
                               ^ body ^ " return 0; }"))
         [ "p = p + 1;"; "p = 1 + p;"; "p = p - 1;"; "p[1];"; "p++;"; "--p;"; "p += 1;"; "p - q;" ]
      @ [
          ( "sizeof(function)",
            2,
            "int g(int x) { return x; }
long f(void) { int (*h)(int); h = g; h = h + 1; return 0; }"
          );
        ]);
    check_located "store through void pointer"
      [ ("sizeof(void)", 1, "long f(void) { char buf[4]; void *p; p = buf; *p = 1; return 0; }") ];
    check_located "second prototype conflicts with the first"
      [
        ("conflicting types for f", 2, "int f(int a);\nlong f(int a, int b);");
        ("conflicting types for f", 2, "int f(int a);\nlong f(int a);");
        ("conflicting types for f", 2, "int f(int a, int b);\nint f(int a);");
        ("conflicting types for f", 2, "int f(char *p);\nint f(long *p);");
        ("conflicting types for f", 2, "int f(int a) { return a; }\nint f(long a);");
      ];
    check_located "definition conflicts with its prototype"
      [
        ("conflicting types for f", 2, "int f(int a);
int f(int a, int b) { return a + b; }");
        ("conflicting types for f", 2, "int f(int a, int b);
int f(int a) { return a; }");
        ("conflicting types for f", 2, "int f(void);
long f(void) { return 1; }");
        ("conflicting types for f", 2, "int f(int a);
int f(long a) { return 1; }");
        ("conflicting types for f", 2, "int f(char *p);
int f(long *p) { return 1; }");
      ];
    check_parse_error "unterminated block" "int f(void) { return 0;";
    check_parse_error "bad token" "int f(void) { return $; }";
    check_parse_error "missing semicolon" "int f(void) { return 0 }";
  ]

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let layout_prog =
  "struct padded { char c; long l; int i; };\n\
   struct packed2 { char a; char b; };\n\
   union mix { char c; long l; };\n\
   struct arr { int xs[10]; char tag; };\n"

let test_layout () =
  let prog = parse_program layout_prog in
  let size tag = Kc.Layout.comp_size prog (Kc.Ir.comp_find prog tag) in
  Alcotest.(check int) "padded size" 24 (size "padded");
  Alcotest.(check int) "packed2 size" 2 (size "packed2");
  Alcotest.(check int) "union size" 8 (size "mix");
  Alcotest.(check int) "arr size" 44 (size "arr");
  let off tag f = Kc.Layout.field_offset prog (Kc.Ir.field_find prog tag f) in
  Alcotest.(check int) "c offset" 0 (off "padded" "c");
  Alcotest.(check int) "l offset" 8 (off "padded" "l");
  Alcotest.(check int) "i offset" 16 (off "padded" "i");
  Alcotest.(check int) "union offsets are zero" 0 (off "mix" "l");
  Alcotest.(check int) "tag after array" 40 (off "arr" "tag")

let test_scalar_sizes () =
  let prog = parse_program "int dummy;" in
  let size t = Kc.Layout.size_of prog t in
  Alcotest.(check int) "char" 1 (size Kc.Ir.char_type);
  Alcotest.(check int) "int" 4 (size Kc.Ir.int_type);
  Alcotest.(check int) "long" 8 (size Kc.Ir.long_type);
  Alcotest.(check int) "ptr" 8 (size (Kc.Ir.Tptr (Kc.Ir.int_type, Kc.Ir.no_annots)))

(* One frame mixing every case: a register char formal, an
   address-taken int formal, a struct and an array local (memory), and
   scalar locals (registers). *)
let test_frame () =
  let prog =
    parse_program
      "struct pair { char tag; long v; };\n\
       int mixed(char c, int n) {\n\
      \  int *pn = &n;\n\
      \  struct pair p;\n\
      \  long k = 7;\n\
      \  char buf[3];\n\
      \  p.v = *pn + c;\n\
      \  buf[0] = c;\n\
      \  return p.v + k + buf[0];\n\
       }"
  in
  let fd = match Kc.Ir.find_fun prog "mixed" with Some f -> f | None -> assert false in
  let slots, bytes = Kc.Layout.frame prog fd in
  Alcotest.(check (list (pair string (option int))))
    "formals then locals, in declaration order"
    [ ("c", None); ("n", Some 0); ("pn", None); ("p", Some 8); ("k", None); ("buf", Some 24) ]
    (List.map (fun ((v : Kc.Ir.varinfo), off) -> (v.Kc.Ir.vname, off)) slots);
  Alcotest.(check int) "bytes end at the last slot, unrounded" 27 bytes

(* ------------------------------------------------------------------ *)
(* Elaboration shape                                                   *)
(* ------------------------------------------------------------------ *)

let find_fun prog name =
  match Kc.Ir.find_fun prog name with
  | Some f -> f
  | None -> Alcotest.failf "function %s not found" name

let test_call_hoisting () =
  let prog = parse_program "int g(int x) { return x; }\nint f(void) { return g(1) + g(2); }" in
  let f = find_fun prog "f" in
  let calls = ref 0 in
  Kc.Ir.iter_instrs (fun i -> match i with Kc.Ir.Icall _ -> incr calls | _ -> ()) f.Kc.Ir.fbody;
  Alcotest.(check int) "two hoisted calls" 2 !calls;
  Alcotest.(check bool) "temps introduced" true (List.length f.Kc.Ir.slocals >= 2)

let test_array_decay_annot () =
  let prog =
    parse_program
      "int take(int * __count(n) p, int n);\nint a[7];\nint f(void) { return take(a, 7); }"
  in
  let f = find_fun prog "f" in
  let saw_count = ref false in
  Kc.Ir.iter_instrs
    (fun i ->
      match i with
      | Kc.Ir.Icall (_, _, args) ->
          List.iter
            (fun (e : Kc.Ir.exp) ->
              Kc.Ir.fold_exp
                (fun () (e : Kc.Ir.exp) ->
                  match e.Kc.Ir.ety with
                  | Kc.Ir.Tptr (_, a) -> (
                      match a.Kc.Ir.a_count with
                      | Some { Kc.Ir.e = Kc.Ir.Econst 7L; _ } -> saw_count := true
                      | _ -> ())
                  | _ -> ())
                () e)
            args
      | _ -> ())
    f.Kc.Ir.fbody;
  Alcotest.(check bool) "array decays with count(7)" true !saw_count

let test_enum_values () =
  let prog = parse_program "enum e { A, B = 10, C };" in
  let v name = Hashtbl.find prog.Kc.Ir.enum_items name in
  Alcotest.(check int64) "A" 0L (v "A");
  Alcotest.(check int64) "B" 10L (v "B");
  Alcotest.(check int64) "C" 11L (v "C")

let test_pretty_roundtrip () =
  let src =
    "struct v { int len; int * __count(len) data; };\n\
     int sum(struct v *p) { int i; int s = 0; for (i = 0; i < p->len; i++) { s += p->data[i]; } return s; }"
  in
  let prog = parse_program src in
  let printed = Kc.Pretty.print_program prog in
  let prog2 = Kc.Typecheck.check_sources [ ("roundtrip.kc", printed) ] in
  Alcotest.(check int) "same number of functions" (List.length prog.Kc.Ir.funcs)
    (List.length prog2.Kc.Ir.funcs)

let test_erasure () =
  let src =
    "int sum(int * __count(n) buf, int n) { int i; int s = 0; for (i = 0; i < n; i++) { s += buf[i]; } return s; }"
  in
  let prog = parse_program src in
  let erased = Kc.Pretty.print_program ~erase:true prog in
  Alcotest.(check bool) "no __count in erased output" false (contains_sub ~affix:"__count" erased)

let () =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( match int_of_string_opt (String.trim s) with Some n -> n | None -> 42)
    | None -> 42
  in
  Printf.printf "qcheck seed: %d (set QCHECK_SEED to override)\n%!" seed;
  let rand = Random.State.make [| seed |] in
  Alcotest.run "kc"
    [
      ( "lexer",
        [
          Alcotest.test_case "simple" `Quick test_lex_simple;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "literals" `Quick test_lex_literals;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "locations" `Quick test_lex_locations;
          Alcotest.test_case "allocation fence" `Quick test_lex_alloc;
          Alcotest.test_case "ref: corpus and workloads" `Quick test_ref_corpus;
          Alcotest.test_case "ref: 300 generated programs" `Quick test_ref_generated;
          Alcotest.test_case "ref: error and edge inputs" `Quick test_ref_edges;
          QCheck_alcotest.to_alcotest ~rand prop_matches_reference;
        ] );
      ("accept", accept_cases);
      ("reject", reject_cases);
      ( "layout",
        [
          Alcotest.test_case "structs" `Quick test_layout;
          Alcotest.test_case "scalars" `Quick test_scalar_sizes;
          Alcotest.test_case "frame" `Quick test_frame;
        ] );
      ( "elaboration",
        [
          Alcotest.test_case "call hoisting" `Quick test_call_hoisting;
          Alcotest.test_case "array decay count" `Quick test_array_decay_annot;
          Alcotest.test_case "enum values" `Quick test_enum_values;
          Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip;
          Alcotest.test_case "erasure" `Quick test_erasure;
          Alcotest.test_case "allocation fence" `Quick test_typecheck_alloc;
        ] );
    ]
