(* Tokens of the KC (Kernel C) language. *)

type t =
  | INT_LIT of int64
  | CHAR_LIT of char
  | STR_LIT of string
  | IDENT of string
  (* Keywords *)
  | KW_VOID
  | KW_CHAR
  | KW_SHORT
  | KW_INT
  | KW_LONG
  | KW_UNSIGNED
  | KW_SIGNED
  | KW_STRUCT
  | KW_UNION
  | KW_ENUM
  | KW_TYPEDEF
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_DO
  | KW_FOR
  | KW_SWITCH
  | KW_CASE
  | KW_DEFAULT
  | KW_BREAK
  | KW_CONTINUE
  | KW_RETURN
  | KW_SIZEOF
  | KW_STATIC
  | KW_EXTERN
  | KW_CONST
  (* Annotation keywords (erasable qualifiers, cf. DESIGN.md §5) *)
  | KW_COUNT (* __count(e) *)
  | KW_NULLTERM (* __nullterm *)
  | KW_OPT (* __opt : pointer may be null *)
  | KW_TRUSTED (* __trusted : escape hatch, code/type is trusted *)
  | KW_USER (* __user : pointer into user space *)
  | KW_BLOCKING (* __blocking : function may sleep *)
  | KW_BLOCKING_IF_WAIT (* __blocking_if_gfp_wait : blocks iff GFP_WAIT passed *)
  | KW_ACQUIRES (* __acquires(lock) *)
  | KW_RELEASES (* __releases(lock) *)
  | KW_RETURNS_ERR (* __returns_err(codes...) *)
  | KW_FRAME_HINT (* __frame_hint(bytes) : extra stack usage *)
  | KW_DELAYED_FREE (* __delayed_free { ... } scope *)
  (* Punctuation *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | SEMI
  | COMMA
  | DOT
  | ARROW
  | QUESTION
  | COLON
  | ELLIPSIS
  (* Operators *)
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | AMP
  | BAR
  | CARET
  | TILDE
  | BANG
  | LT
  | GT
  | LE
  | GE
  | EQEQ
  | NE
  | ANDAND
  | BARBAR
  | SHL
  | SHR
  | EQ
  | PLUSEQ
  | MINUSEQ
  | STAREQ
  | SLASHEQ
  | PERCENTEQ
  | AMPEQ
  | BAREQ
  | CARETEQ
  | SHLEQ
  | SHREQ
  | PLUSPLUS
  | MINUSMINUS
  | EOF

let keyword_table : (string * t) list =
  [
    ("void", KW_VOID);
    ("char", KW_CHAR);
    ("short", KW_SHORT);
    ("int", KW_INT);
    ("long", KW_LONG);
    ("unsigned", KW_UNSIGNED);
    ("signed", KW_SIGNED);
    ("struct", KW_STRUCT);
    ("union", KW_UNION);
    ("enum", KW_ENUM);
    ("typedef", KW_TYPEDEF);
    ("if", KW_IF);
    ("else", KW_ELSE);
    ("while", KW_WHILE);
    ("do", KW_DO);
    ("for", KW_FOR);
    ("switch", KW_SWITCH);
    ("case", KW_CASE);
    ("default", KW_DEFAULT);
    ("break", KW_BREAK);
    ("continue", KW_CONTINUE);
    ("return", KW_RETURN);
    ("sizeof", KW_SIZEOF);
    ("static", KW_STATIC);
    ("extern", KW_EXTERN);
    ("const", KW_CONST);
    ("__count", KW_COUNT);
    ("__nullterm", KW_NULLTERM);
    ("__opt", KW_OPT);
    ("__trusted", KW_TRUSTED);
    ("__user", KW_USER);
    ("__blocking", KW_BLOCKING);
    ("__blocking_if_gfp_wait", KW_BLOCKING_IF_WAIT);
    ("__acquires", KW_ACQUIRES);
    ("__releases", KW_RELEASES);
    ("__returns_err", KW_RETURNS_ERR);
    ("__frame_hint", KW_FRAME_HINT);
    ("__delayed_free", KW_DELAYED_FREE);
  ]

(* Keywords bucketed by first byte, built once from [keyword_table].
   An identifier costs a length compare per keyword sharing its first
   byte, and is copied out of the source only if it is no keyword. *)
let keyword_buckets =
  let b = Array.make 256 [] in
  List.iter (fun ((s, _) as kw) -> b.(Char.code s.[0]) <- kw :: b.(Char.code s.[0])) keyword_table;
  b

let rec same kw src i k = k = String.length kw || (kw.[k] = src.[i + k] && same kw src i (k + 1))

let rec lookup src i len = function
  | [] -> IDENT (String.sub src i len)
  | (kw, t) :: rest -> if String.length kw = len && same kw src i 0 then t else lookup src i len rest

(* The keyword or identifier token for [String.sub src i len], [len > 0]. *)
let of_ident_sub src i len = lookup src i len keyword_buckets.(Char.code src.[i])

let to_string = function
  | INT_LIT n -> Int64.to_string n
  | CHAR_LIT c -> Printf.sprintf "%C" c
  | STR_LIT s -> Printf.sprintf "%S" s
  | IDENT s -> s
  | KW_VOID -> "void"
  | KW_CHAR -> "char"
  | KW_SHORT -> "short"
  | KW_INT -> "int"
  | KW_LONG -> "long"
  | KW_UNSIGNED -> "unsigned"
  | KW_SIGNED -> "signed"
  | KW_STRUCT -> "struct"
  | KW_UNION -> "union"
  | KW_ENUM -> "enum"
  | KW_TYPEDEF -> "typedef"
  | KW_IF -> "if"
  | KW_ELSE -> "else"
  | KW_WHILE -> "while"
  | KW_DO -> "do"
  | KW_FOR -> "for"
  | KW_SWITCH -> "switch"
  | KW_CASE -> "case"
  | KW_DEFAULT -> "default"
  | KW_BREAK -> "break"
  | KW_CONTINUE -> "continue"
  | KW_RETURN -> "return"
  | KW_SIZEOF -> "sizeof"
  | KW_STATIC -> "static"
  | KW_EXTERN -> "extern"
  | KW_CONST -> "const"
  | KW_COUNT -> "__count"
  | KW_NULLTERM -> "__nullterm"
  | KW_OPT -> "__opt"
  | KW_TRUSTED -> "__trusted"
  | KW_USER -> "__user"
  | KW_BLOCKING -> "__blocking"
  | KW_BLOCKING_IF_WAIT -> "__blocking_if_gfp_wait"
  | KW_ACQUIRES -> "__acquires"
  | KW_RELEASES -> "__releases"
  | KW_RETURNS_ERR -> "__returns_err"
  | KW_FRAME_HINT -> "__frame_hint"
  | KW_DELAYED_FREE -> "__delayed_free"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | SEMI -> ";"
  | COMMA -> ","
  | DOT -> "."
  | ARROW -> "->"
  | QUESTION -> "?"
  | COLON -> ":"
  | ELLIPSIS -> "..."
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | AMP -> "&"
  | BAR -> "|"
  | CARET -> "^"
  | TILDE -> "~"
  | BANG -> "!"
  | LT -> "<"
  | GT -> ">"
  | LE -> "<="
  | GE -> ">="
  | EQEQ -> "=="
  | NE -> "!="
  | ANDAND -> "&&"
  | BARBAR -> "||"
  | SHL -> "<<"
  | SHR -> ">>"
  | EQ -> "="
  | PLUSEQ -> "+="
  | MINUSEQ -> "-="
  | STAREQ -> "*="
  | SLASHEQ -> "/="
  | PERCENTEQ -> "%="
  | AMPEQ -> "&="
  | BAREQ -> "|="
  | CARETEQ -> "^="
  | SHLEQ -> "<<="
  | SHREQ -> ">>="
  | PLUSPLUS -> "++"
  | MINUSMINUS -> "--"
  | EOF -> "<eof>"

(* Monomorphic equality: payloads compare by their own [equal], and
   payload-free tokens are immediates, so [==] decides them. *)
let equal (a : t) (b : t) =
  match (a, b) with
  | INT_LIT x, INT_LIT y -> Int64.equal x y
  | CHAR_LIT x, CHAR_LIT y -> Char.equal x y
  | STR_LIT x, STR_LIT y | IDENT x, IDENT y -> String.equal x y
  | (INT_LIT _ | CHAR_LIT _ | STR_LIT _ | IDENT _), _ -> false
  | _ -> a == b
