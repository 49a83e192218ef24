(* Recursive-descent parser for KC.

   The parser works over the tokens produced by {!Lexer.tokenize}.
   It keeps a set of typedef names, which is the single piece of
   context needed to disambiguate declarations from expressions (the
   classic C lexer-hack, confined to the parser here).

   Token tests are monomorphic ([Token.equal] or a [match]). Locations
   are built on demand: [peek_loc] caches the last one it built, since
   the parser asks for the same token's location several times as it
   descends through the expression levels. *)

exception Error of string * Loc.t

type state = {
  toks : Lexer.t;
  len : int; (* number of tokens *)
  mutable idx : int;
  mutable typedefs : (string, unit) Hashtbl.t;
  mutable loc_idx : int; (* the token [loc] belongs to; -1 before the first *)
  mutable loc : Loc.t;
}

let make toks =
  { toks; len = Lexer.length toks; idx = 0; typedefs = Hashtbl.create 64; loc_idx = -1; loc = Loc.dummy }

let peek st = Lexer.token st.toks st.idx

let peek_loc st =
  if st.loc_idx <> st.idx then begin
    st.loc <- Lexer.loc st.toks st.idx;
    st.loc_idx <- st.idx
  end;
  st.loc

let peek_n st n =
  let i = st.idx + n in
  if i < st.len then Lexer.token st.toks i else Token.EOF

let error st msg = raise (Error (msg, peek_loc st))

let advance st = if st.idx < st.len - 1 then st.idx <- st.idx + 1

(* The current token's location; then step past the token. *)
let next_loc st =
  let loc = peek_loc st in
  advance st;
  loc

let eat st tok =
  if Token.equal (peek st) tok then advance st
  else
    error st
      (Printf.sprintf "expected %s but found %s" (Token.to_string tok)
         (Token.to_string (peek st)))

let accept st tok =
  if Token.equal (peek st) tok then begin
    advance st;
    true
  end
  else false

let expect_ident st =
  match peek st with
  | Token.IDENT s ->
      advance st;
      s
  | t -> error st (Printf.sprintf "expected identifier, found %s" (Token.to_string t))

let is_typedef_name st s = Hashtbl.mem st.typedefs s

(* Does the current token start a type? Used for cast vs. paren-expr
   and declaration vs. expression-statement disambiguation. *)
let starts_type_tok st = function
  | Token.KW_VOID | Token.KW_CHAR | Token.KW_SHORT | Token.KW_INT | Token.KW_LONG
  | Token.KW_UNSIGNED | Token.KW_SIGNED | Token.KW_STRUCT | Token.KW_UNION
  | Token.KW_ENUM | Token.KW_CONST ->
      true
  | Token.IDENT s -> is_typedef_name st s
  | _ -> false

let starts_type st = starts_type_tok st (peek st)

let expr loc e = { Ast.e; eloc = loc }
let stmt loc s = { Ast.s; sloc = loc }

(* ------------------------------------------------------------------ *)
(* Declaration specifiers: the base type before any declarator.       *)
(* ------------------------------------------------------------------ *)

let parse_base_type st : Ast.ty =
  let rec skip_const () = if accept st Token.KW_CONST then skip_const () in
  skip_const ();
  let ty =
    match peek st with
    | Token.KW_VOID ->
        advance st;
        Ast.Tvoid
    | Token.KW_STRUCT ->
        advance st;
        Ast.Tstruct (expect_ident st)
    | Token.KW_UNION ->
        advance st;
        Ast.Tunion (expect_ident st)
    | Token.KW_ENUM ->
        advance st;
        Ast.Tenum (expect_ident st)
    | Token.IDENT s when is_typedef_name st s ->
        advance st;
        Ast.Tnamed s
    | _ ->
        (* Integer type: a bag of specifiers. *)
        let signed = ref None and kind = ref None and any = ref false in
        let rec go () =
          match peek st with
          | Token.KW_UNSIGNED ->
              advance st;
              signed := Some Ast.Unsigned;
              any := true;
              go ()
          | Token.KW_SIGNED ->
              advance st;
              signed := Some Ast.Signed;
              any := true;
              go ()
          | Token.KW_CHAR ->
              advance st;
              kind := Some Ast.Ichar;
              any := true;
              go ()
          | Token.KW_SHORT ->
              advance st;
              kind := Some Ast.Ishort;
              any := true;
              go ()
          | Token.KW_INT ->
              advance st;
              (match !kind with Some Ast.Ishort | Some Ast.Ilong -> () | _ -> kind := Some Ast.Iint);
              any := true;
              go ()
          | Token.KW_LONG ->
              advance st;
              kind := Some Ast.Ilong;
              any := true;
              go ()
          | _ -> ()
        in
        go ();
        if not !any then error st "expected a type";
        let k = match !kind with Some k -> k | None -> Ast.Iint in
        let s =
          match !signed with
          | Some s -> s
          | None -> if k = Ast.Ichar then Ast.Unsigned else Ast.Signed
          (* kernel chars are unsigned by default in KC *)
        in
        Ast.Tint (k, s)
  in
  skip_const ();
  ty

(* ------------------------------------------------------------------ *)
(* Expressions: precedence climbing.                                  *)
(* ------------------------------------------------------------------ *)

(* Declarator tree, resolved inside-out into a type. *)
type dtor =
  | Dname of string option
  | Dptr of Ast.ptr_annot list * dtor
  | Darr of Ast.expr option * dtor
  | Dfun of Ast.param list * bool * dtor

let rec dtor_to_type (base : Ast.ty) = function
  | Dname n -> (n, base)
  | Dptr (annots, d) -> dtor_to_type (Ast.Tptr (base, annots)) d
  | Darr (sz, d) -> dtor_to_type (Ast.Tarray (base, sz)) d
  | Dfun (params, variadic, d) -> dtor_to_type (Ast.Tfun (base, params, variadic)) d

let rec parse_expr st : Ast.expr = parse_assignment st

and parse_assignment st =
  let lhs = parse_conditional st in
  match peek st with
  | Token.EQ ->
      let loc = next_loc st in
      expr loc (Ast.Eassign (lhs, parse_assignment st))
  | tok -> (
      match compound_assign_op tok with
      | Some op ->
          let loc = next_loc st in
          expr loc (Ast.Eassign_op (op, lhs, parse_assignment st))
      | None -> lhs)

(* The operator of a compound assignment token. *)
and compound_assign_op = function
  | Token.PLUSEQ -> Some Ast.Add
  | Token.MINUSEQ -> Some Ast.Sub
  | Token.STAREQ -> Some Ast.Mul
  | Token.SLASHEQ -> Some Ast.Div
  | Token.PERCENTEQ -> Some Ast.Mod
  | Token.AMPEQ -> Some Ast.Bitand
  | Token.BAREQ -> Some Ast.Bitor
  | Token.CARETEQ -> Some Ast.Bitxor
  | Token.SHLEQ -> Some Ast.Shl
  | Token.SHREQ -> Some Ast.Shr
  | _ -> None

and parse_conditional st =
  let cond = parse_binary st 0 in
  if accept st Token.QUESTION then begin
    let loc = peek_loc st in
    let e1 = parse_expr st in
    eat st Token.COLON;
    let e2 = parse_conditional st in
    expr loc (Ast.Econd (cond, e1, e2))
  end
  else cond

(* Binary operator precedence table; higher binds tighter. *)
and binop_of_token = function
  | Token.BARBAR -> Some (Ast.Logor, 1)
  | Token.ANDAND -> Some (Ast.Logand, 2)
  | Token.BAR -> Some (Ast.Bitor, 3)
  | Token.CARET -> Some (Ast.Bitxor, 4)
  | Token.AMP -> Some (Ast.Bitand, 5)
  | Token.EQEQ -> Some (Ast.Eq, 6)
  | Token.NE -> Some (Ast.Ne, 6)
  | Token.LT -> Some (Ast.Lt, 7)
  | Token.GT -> Some (Ast.Gt, 7)
  | Token.LE -> Some (Ast.Le, 7)
  | Token.GE -> Some (Ast.Ge, 7)
  | Token.SHL -> Some (Ast.Shl, 8)
  | Token.SHR -> Some (Ast.Shr, 8)
  | Token.PLUS -> Some (Ast.Add, 9)
  | Token.MINUS -> Some (Ast.Sub, 9)
  | Token.STAR -> Some (Ast.Mul, 10)
  | Token.SLASH -> Some (Ast.Div, 10)
  | Token.PERCENT -> Some (Ast.Mod, 10)
  | _ -> None

and parse_binary st min_prec =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match binop_of_token (peek st) with
    | Some (op, prec) when prec >= min_prec ->
        let loc = peek_loc st in
        advance st;
        let rhs = parse_binary st (prec + 1) in
        lhs := expr loc (Ast.Ebinop (op, !lhs, rhs))
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary st =
  let loc = peek_loc st in
  match peek st with
  | Token.MINUS ->
      advance st;
      expr loc (Ast.Eunop (Ast.Neg, parse_unary st))
  | Token.BANG ->
      advance st;
      expr loc (Ast.Eunop (Ast.Lognot, parse_unary st))
  | Token.TILDE ->
      advance st;
      expr loc (Ast.Eunop (Ast.Bitnot, parse_unary st))
  | Token.STAR ->
      advance st;
      expr loc (Ast.Ederef (parse_unary st))
  | Token.AMP ->
      advance st;
      expr loc (Ast.Eaddrof (parse_unary st))
  | Token.PLUSPLUS ->
      advance st;
      expr loc (Ast.Eincr (true, true, parse_unary st))
  | Token.MINUSMINUS ->
      advance st;
      expr loc (Ast.Eincr (false, true, parse_unary st))
  | Token.KW_SIZEOF ->
      advance st;
      if Token.equal (peek st) Token.LPAREN && starts_type_tok st (peek_n st 1) then begin
        eat st Token.LPAREN;
        let ty = parse_type_name st in
        eat st Token.RPAREN;
        expr loc (Ast.Esizeof_type ty)
      end
      else expr loc (Ast.Esizeof_expr (parse_unary st))
  | Token.LPAREN when starts_type_tok st (peek_n st 1) ->
      (* Cast expression. *)
      eat st Token.LPAREN;
      let ty = parse_type_name st in
      eat st Token.RPAREN;
      expr loc (Ast.Ecast (ty, parse_unary st))
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Token.LBRACKET ->
        let loc = next_loc st in
        let idx = parse_expr st in
        eat st Token.RBRACKET;
        e := expr loc (Ast.Eindex (!e, idx))
    | Token.LPAREN ->
        let loc = next_loc st in
        let args = ref [] in
        if not (Token.equal (peek st) Token.RPAREN) then begin
          args := [ parse_assignment st ];
          while accept st Token.COMMA do
            args := parse_assignment st :: !args
          done
        end;
        eat st Token.RPAREN;
        e := expr loc (Ast.Ecall (!e, List.rev !args))
    | Token.DOT ->
        let loc = next_loc st in
        e := expr loc (Ast.Efield (!e, expect_ident st))
    | Token.ARROW ->
        let loc = next_loc st in
        e := expr loc (Ast.Earrow (!e, expect_ident st))
    | Token.PLUSPLUS ->
        let loc = next_loc st in
        e := expr loc (Ast.Eincr (true, false, !e))
    | Token.MINUSMINUS ->
        let loc = next_loc st in
        e := expr loc (Ast.Eincr (false, false, !e))
    | _ -> continue_ := false
  done;
  !e

and parse_primary st =
  let loc = peek_loc st in
  match peek st with
  | Token.INT_LIT n ->
      advance st;
      expr loc (Ast.Eint n)
  | Token.CHAR_LIT c ->
      advance st;
      expr loc (Ast.Echar c)
  | Token.STR_LIT s ->
      advance st;
      expr loc (Ast.Estr s)
  | Token.IDENT s ->
      advance st;
      expr loc (Ast.Eident s)
  | Token.LPAREN ->
      advance st;
      let e = parse_expr st in
      eat st Token.RPAREN;
      e
  | t -> error st (Printf.sprintf "expected expression, found %s" (Token.to_string t))

(* ------------------------------------------------------------------ *)
(* Declarators.                                                       *)
(* ------------------------------------------------------------------ *)

and parse_ptr_annots st =
  let annots = ref [] in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Token.KW_COUNT ->
        advance st;
        eat st Token.LPAREN;
        let e = parse_expr st in
        eat st Token.RPAREN;
        annots := Ast.Acount e :: !annots
    | Token.KW_NULLTERM ->
        advance st;
        annots := Ast.Anullterm :: !annots
    | Token.KW_OPT ->
        advance st;
        annots := Ast.Aopt :: !annots
    | Token.KW_TRUSTED ->
        advance st;
        annots := Ast.Atrusted :: !annots
    | Token.KW_USER ->
        advance st;
        annots := Ast.Auser :: !annots
    | Token.KW_CONST ->
        advance st (* const is accepted and erased *)
    | _ -> continue_ := false
  done;
  List.rev !annots

and parse_declarator st : dtor =
  if accept st Token.STAR then begin
    let annots = parse_ptr_annots st in
    Dptr (annots, parse_declarator st)
  end
  else parse_direct_declarator st

and parse_direct_declarator st =
  let base =
    match peek st with
    | Token.IDENT s when not (is_typedef_name st s) ->
        advance st;
        Dname (Some s)
    | Token.LPAREN
      when match peek_n st 1 with
           | Token.STAR | Token.IDENT _ -> true
           | _ -> false ->
        eat st Token.LPAREN;
        let d = parse_declarator st in
        eat st Token.RPAREN;
        d
    | _ -> Dname None (* abstract declarator *)
  in
  parse_declarator_suffixes st base

and parse_declarator_suffixes st d =
  match peek st with
  | Token.LBRACKET ->
      advance st;
      let size = if Token.equal (peek st) Token.RBRACKET then None else Some (parse_expr st) in
      eat st Token.RBRACKET;
      parse_declarator_suffixes st (Darr (size, d))
  | Token.LPAREN ->
      advance st;
      let params, variadic = parse_param_list st in
      eat st Token.RPAREN;
      parse_declarator_suffixes st (Dfun (params, variadic, d))
  | _ -> d

and parse_param_list st : Ast.param list * bool =
  if Token.equal (peek st) Token.RPAREN then ([], false)
  else if Token.equal (peek st) Token.KW_VOID && Token.equal (peek_n st 1) Token.RPAREN then begin
    advance st;
    ([], false)
  end
  else begin
    let params = ref [] and variadic = ref false in
    let parse_one () =
      if Token.equal (peek st) Token.ELLIPSIS then begin
        advance st;
        variadic := true
      end
      else begin
        let base = parse_base_type st in
        let d = parse_declarator st in
        let name, ty = dtor_to_type base d in
        let pname = match name with Some n -> n | None -> "" in
        params := { Ast.pname; pty = ty } :: !params
      end
    in
    parse_one ();
    while accept st Token.COMMA do
      parse_one ()
    done;
    (List.rev !params, !variadic)
  end

and parse_type_name st : Ast.ty =
  let base = parse_base_type st in
  let d = parse_declarator st in
  let name, ty = dtor_to_type base d in
  match name with
  | None -> ty
  | Some n -> error st (Printf.sprintf "unexpected name %s in type" n)

(* ------------------------------------------------------------------ *)
(* Statements.                                                        *)
(* ------------------------------------------------------------------ *)

let rec parse_stmt st : Ast.stmt =
  let loc = peek_loc st in
  match peek st with
  | Token.LBRACE -> stmt loc (Ast.Sblock (parse_block st))
  | Token.KW_IF ->
      advance st;
      eat st Token.LPAREN;
      let cond = parse_expr st in
      eat st Token.RPAREN;
      let then_ = parse_stmt_as_block st in
      let else_ = if accept st Token.KW_ELSE then parse_stmt_as_block st else [] in
      stmt loc (Ast.Sif (cond, then_, else_))
  | Token.KW_WHILE ->
      advance st;
      eat st Token.LPAREN;
      let cond = parse_expr st in
      eat st Token.RPAREN;
      stmt loc (Ast.Swhile (cond, parse_stmt_as_block st))
  | Token.KW_DO ->
      advance st;
      let body = parse_stmt_as_block st in
      eat st Token.KW_WHILE;
      eat st Token.LPAREN;
      let cond = parse_expr st in
      eat st Token.RPAREN;
      eat st Token.SEMI;
      stmt loc (Ast.Sdowhile (body, cond))
  | Token.KW_FOR ->
      advance st;
      eat st Token.LPAREN;
      let init =
        if Token.equal (peek st) Token.SEMI then begin
          advance st;
          None
        end
        else if starts_type st then begin
          let d = parse_local_decl st in
          Some (stmt loc (Ast.Sdecl d))
        end
        else begin
          let e = parse_expr st in
          eat st Token.SEMI;
          Some (stmt loc (Ast.Sexpr e))
        end
      in
      let cond = if Token.equal (peek st) Token.SEMI then None else Some (parse_expr st) in
      eat st Token.SEMI;
      let step = if Token.equal (peek st) Token.RPAREN then None else Some (parse_expr st) in
      eat st Token.RPAREN;
      stmt loc (Ast.Sfor (init, cond, step, parse_stmt_as_block st))
  | Token.KW_SWITCH ->
      advance st;
      eat st Token.LPAREN;
      let e = parse_expr st in
      eat st Token.RPAREN;
      eat st Token.LBRACE;
      let cases = parse_switch_cases st in
      eat st Token.RBRACE;
      stmt loc (Ast.Sswitch (e, cases))
  | Token.KW_BREAK ->
      advance st;
      eat st Token.SEMI;
      stmt loc Ast.Sbreak
  | Token.KW_CONTINUE ->
      advance st;
      eat st Token.SEMI;
      stmt loc Ast.Scontinue
  | Token.KW_RETURN ->
      advance st;
      let e = if Token.equal (peek st) Token.SEMI then None else Some (parse_expr st) in
      eat st Token.SEMI;
      stmt loc (Ast.Sreturn e)
  | Token.KW_DELAYED_FREE -> (
      advance st;
      match peek st with
      | Token.LBRACE -> stmt loc (Ast.Sdelayed_free (parse_block st))
      | _ -> error st "__delayed_free must be followed by a block")
  | Token.KW_TRUSTED -> (
      advance st;
      match peek st with
      | Token.LBRACE -> stmt loc (Ast.Strusted (parse_block st))
      | _ -> error st "__trusted statement must be followed by a block")
  | Token.SEMI ->
      advance st;
      stmt loc (Ast.Sblock [])
  | _ when starts_type st -> stmt loc (Ast.Sdecl (parse_local_decl st))
  | _ ->
      let e = parse_expr st in
      eat st Token.SEMI;
      stmt loc (Ast.Sexpr e)

and parse_stmt_as_block st : Ast.block =
  match parse_stmt st with { Ast.s = Ast.Sblock b; _ } -> b | s -> [ s ]

and parse_block st : Ast.block =
  eat st Token.LBRACE;
  let stmts = ref [] in
  while not (Token.equal (peek st) Token.RBRACE) do
    stmts := parse_stmt st :: !stmts
  done;
  eat st Token.RBRACE;
  List.rev !stmts

and parse_local_decl st : Ast.decl_local =
  let base = parse_base_type st in
  let d = parse_declarator st in
  let name, ty = dtor_to_type base d in
  let dname = match name with Some n -> n | None -> error st "expected a name in declaration" in
  let dinit = if accept st Token.EQ then Some (parse_expr st) else None in
  eat st Token.SEMI;
  { Ast.dname; dty = ty; dinit }

and parse_switch_cases st : Ast.switch_case list =
  let cases = ref [] in
  while not (Token.equal (peek st) Token.RBRACE) do
    let labels = ref [] and is_default = ref false in
    let rec labels_loop () =
      match peek st with
      | Token.KW_CASE ->
          advance st;
          let v =
            match peek st with
            | Token.INT_LIT n ->
                advance st;
                n
            | Token.MINUS -> (
                advance st;
                match peek st with
                | Token.INT_LIT n ->
                    advance st;
                    Int64.neg n
                | _ -> error st "expected integer after case -")
            | Token.CHAR_LIT c ->
                advance st;
                Int64.of_int (Char.code c)
            | Token.IDENT _ ->
                (* Enum constants in case labels are resolved by the
                   type checker; encode as a marker the parser cannot
                   resolve. We require literal labels in KC instead. *)
                error st "case labels must be integer literals in KC"
            | _ -> error st "expected integer literal after case"
          in
          eat st Token.COLON;
          labels := v :: !labels;
          labels_loop ()
      | Token.KW_DEFAULT ->
          advance st;
          eat st Token.COLON;
          is_default := true;
          labels_loop ()
      | _ -> ()
    in
    labels_loop ();
    if !labels = [] && not !is_default then error st "expected case or default label";
    let body = ref [] in
    let stop () =
      match peek st with
      | Token.KW_CASE | Token.KW_DEFAULT | Token.RBRACE -> true
      | _ -> false
    in
    while not (stop ()) do
      body := parse_stmt st :: !body
    done;
    cases :=
      { Ast.cases = List.rev !labels; is_default = !is_default; body = List.rev !body }
      :: !cases
  done;
  List.rev !cases

(* ------------------------------------------------------------------ *)
(* Globals.                                                           *)
(* ------------------------------------------------------------------ *)

let rec parse_initializer st : Ast.init =
  if Token.equal (peek st) Token.LBRACE then begin
    advance st;
    let items = ref [] in
    if not (Token.equal (peek st) Token.RBRACE) then begin
      items := [ parse_initializer st ];
      while accept st Token.COMMA do
        if not (Token.equal (peek st) Token.RBRACE) then items := parse_initializer st :: !items
      done
    end;
    eat st Token.RBRACE;
    Ast.Ilist (List.rev !items)
  end
  else Ast.Iexpr (parse_assignment st)

let parse_fun_annots st : Ast.fun_annot list =
  let annots = ref [] in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Token.KW_BLOCKING ->
        advance st;
        annots := Ast.Fblocking :: !annots
    | Token.KW_BLOCKING_IF_WAIT ->
        advance st;
        annots := Ast.Fblocking_if_gfp_wait :: !annots
    | Token.KW_TRUSTED ->
        advance st;
        annots := Ast.Ftrusted :: !annots
    | Token.KW_ACQUIRES ->
        advance st;
        eat st Token.LPAREN;
        let l = expect_ident st in
        eat st Token.RPAREN;
        annots := Ast.Facquires l :: !annots
    | Token.KW_RELEASES ->
        advance st;
        eat st Token.LPAREN;
        let l = expect_ident st in
        eat st Token.RPAREN;
        annots := Ast.Freleases l :: !annots
    | Token.KW_RETURNS_ERR ->
        advance st;
        eat st Token.LPAREN;
        let codes = ref [] in
        let parse_code () =
          let neg = accept st Token.MINUS in
          match peek st with
          | Token.INT_LIT n ->
              advance st;
              codes := (if neg then Int64.neg n else n) :: !codes
          | _ -> error st "expected integer error code"
        in
        parse_code ();
        while accept st Token.COMMA do
          parse_code ()
        done;
        eat st Token.RPAREN;
        annots := Ast.Freturns_err (List.rev !codes) :: !annots
    | Token.KW_FRAME_HINT ->
        advance st;
        eat st Token.LPAREN;
        (match peek st with
        | Token.INT_LIT n ->
            advance st;
            annots := Ast.Fframe_hint (Int64.to_int n) :: !annots
        | _ -> error st "expected byte count in __frame_hint");
        eat st Token.RPAREN
    | _ -> continue_ := false
  done;
  List.rev !annots

let rec parse_global st : Ast.global * Loc.t =
  let loc = peek_loc st in
  let is_static = ref false in
  let rec storage () =
    if accept st Token.KW_STATIC then begin
      is_static := true;
      storage ()
    end
    else if accept st Token.KW_EXTERN then storage ()
  in
  storage ();
  match peek st with
  | Token.KW_TYPEDEF ->
      advance st;
      let base = parse_base_type st in
      let d = parse_declarator st in
      let name, ty = dtor_to_type base d in
      let name = match name with Some n -> n | None -> error st "typedef needs a name" in
      eat st Token.SEMI;
      Hashtbl.replace st.typedefs name ();
      (Ast.Gtypedef (name, ty), loc)
  | Token.KW_STRUCT when Token.equal (peek_n st 2) Token.SEMI ->
      advance st;
      let tag = expect_ident st in
      eat st Token.SEMI;
      (Ast.Gtag_decl (true, tag), loc)
  | Token.KW_UNION when Token.equal (peek_n st 2) Token.SEMI ->
      advance st;
      let tag = expect_ident st in
      eat st Token.SEMI;
      (Ast.Gtag_decl (false, tag), loc)
  | Token.KW_STRUCT when Token.equal (peek_n st 2) Token.LBRACE ->
      advance st;
      let tag = expect_ident st in
      eat st Token.LBRACE;
      let fields = parse_field_list st in
      eat st Token.RBRACE;
      eat st Token.SEMI;
      (Ast.Gcomp (true, tag, fields), loc)
  | Token.KW_UNION when Token.equal (peek_n st 2) Token.LBRACE ->
      advance st;
      let tag = expect_ident st in
      eat st Token.LBRACE;
      let fields = parse_field_list st in
      eat st Token.RBRACE;
      eat st Token.SEMI;
      (Ast.Gcomp (false, tag, fields), loc)
  | Token.KW_ENUM when Token.equal (peek_n st 2) Token.LBRACE ->
      advance st;
      let tag = expect_ident st in
      eat st Token.LBRACE;
      let items = ref [] in
      let parse_item () =
        match peek st with
        | Token.IDENT name ->
            advance st;
            let v =
              if accept st Token.EQ then begin
                let neg = accept st Token.MINUS in
                match peek st with
                | Token.INT_LIT n ->
                    advance st;
                    Some (if neg then Int64.neg n else n)
                | _ -> error st "expected integer enum value"
              end
              else None
            in
            items := (name, v) :: !items
        | Token.RBRACE -> ()
        | _ -> error st "expected enum item"
      in
      parse_item ();
      while accept st Token.COMMA do
        parse_item ()
      done;
      eat st Token.RBRACE;
      eat st Token.SEMI;
      (Ast.Genum (tag, List.rev !items), loc)
  | _ -> (
      let base = parse_base_type st in
      let d = parse_declarator st in
      let name, ty = dtor_to_type base d in
      let name = match name with Some n -> n | None -> error st "expected a name" in
      match ty with
      | Ast.Tfun (ret, params, _variadic) -> (
          let annots = parse_fun_annots st in
          match peek st with
          | Token.SEMI ->
              advance st;
              ( Ast.Gfun
                  {
                    fname = name;
                    fret = ret;
                    fparams = params;
                    fannots = annots;
                    fbody = None;
                    fstatic = !is_static;
                    floc = loc;
                  },
                loc )
          | Token.LBRACE ->
              let body = parse_block st in
              ( Ast.Gfun
                  {
                    fname = name;
                    fret = ret;
                    fparams = params;
                    fannots = annots;
                    fbody = Some body;
                    fstatic = !is_static;
                    floc = loc;
                  },
                loc )
          | t ->
              error st
                (Printf.sprintf "expected ; or { after function declarator, found %s"
                   (Token.to_string t)))
      | _ ->
          let init = if accept st Token.EQ then Some (parse_initializer st) else None in
          eat st Token.SEMI;
          (Ast.Gvar { vname = name; vty = ty; vinit = init; vstatic = !is_static }, loc))

and parse_field_list st : Ast.param list =
  let fields = ref [] in
  while not (Token.equal (peek st) Token.RBRACE) do
    let base = parse_base_type st in
    let d = parse_declarator st in
    let name, ty = dtor_to_type base d in
    let name = match name with Some n -> n | None -> error st "field needs a name" in
    fields := { Ast.pname = name; pty = ty } :: !fields;
    (* Multiple declarators per field line: `int a, b;` *)
    while accept st Token.COMMA do
      let d = parse_declarator st in
      let name, ty = dtor_to_type base d in
      let name = match name with Some n -> n | None -> error st "field needs a name" in
      fields := { Ast.pname = name; pty = ty } :: !fields
    done;
    eat st Token.SEMI
  done;
  List.rev !fields

(* Parse a whole compilation unit. [typedefs] seeds typedef names that
   are defined in other units of the same program. *)
let parse_unit ?(typedefs = []) ~name src : Ast.unit_ =
  let toks = Lexer.tokenize ~file:name src in
  let st = make toks in
  List.iter (fun t -> Hashtbl.replace st.typedefs t ()) typedefs;
  let globals = ref [] in
  while not (Token.equal (peek st) Token.EOF) do
    globals := parse_global st :: !globals
  done;
  { Ast.uname = name; globals = List.rev !globals }

(* Typedef names defined by a unit, used to seed later units. *)
let typedef_names (u : Ast.unit_) =
  List.filter_map (function Ast.Gtypedef (n, _), _ -> Some n | _ -> None) u.Ast.globals
