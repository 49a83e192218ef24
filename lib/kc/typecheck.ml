(* Type checking and elaboration: surface AST -> typed IR.

   Runs in two passes over a list of compilation units:
   - pass A collects typedefs, struct/union definitions and enums;
   - pass B elaborates globals and function bodies in program order.

   Elaboration hoists nested function calls into temporaries, desugars
   compound assignment / increment / [for] loops, makes implicit
   conversions and array decay explicit, and resolves dependent
   [__count] annotations (to parameter/local references inside
   functions, and to {!Ir.Eself_field} inside struct definitions). *)

exception Type_error of string * Loc.t

let err loc fmt = Printf.ksprintf (fun msg -> raise (Type_error (msg, loc))) fmt

type scope = (string, Ir.varinfo) Hashtbl.t

type env = {
  prog : Ir.program;
  typedefs : (string, Ast.ty) Hashtbl.t;
  mutable scopes : scope list; (* innermost first *)
  mutable cur_fn : Ir.fundec option;
  vid_ctr : int ref;
  temp_ctr : int ref;
  (* When elaborating a struct field type, identifiers in __count
     resolve to sibling fields of this tag. *)
  mutable field_ctx : (string * Ast.param list) option;
}

let fresh_vid env =
  incr env.vid_ctr;
  !(env.vid_ctr)

let make_env () =
  {
    prog =
      {
        Ir.comps = Hashtbl.create 64;
        enum_items = Hashtbl.create 64;
        globals = [];
        funcs = [];
        fun_by_name = Hashtbl.create 64;
        glob_by_name = Hashtbl.create 64;
      };
    typedefs = Hashtbl.create 64;
    scopes = [];
    cur_fn = None;
    vid_ctr = ref 0;
    temp_ctr = ref 0;
    field_ctx = None;
  }

let push_scope env = env.scopes <- Hashtbl.create 8 :: env.scopes
let pop_scope env = match env.scopes with [] -> () | _ :: rest -> env.scopes <- rest

let lookup_local env name =
  let rec go = function
    | [] -> None
    | sc :: rest -> ( match Hashtbl.find_opt sc name with Some v -> Some v | None -> go rest)
  in
  go env.scopes

let define_local env (v : Ir.varinfo) =
  match env.scopes with
  | [] -> invalid_arg "define_local: no scope"
  | sc :: _ -> Hashtbl.replace sc v.Ir.vname v

(* [sizeof]: a type without a size is a located type error. *)
let size_of env loc ty =
  try Layout.size_of env.prog ty with Layout.Layout_error msg -> err loc "%s" msg

(* Pointer arithmetic steps by the pointee's size, so [void *] and
   function pointers take none. *)
let require_step env loc (p : Ir.exp) =
  match p.Ir.ety with Ir.Tptr (t, _) -> ignore (size_of env loc t) | _ -> ()

(* A variable or field needs a size: its type may be neither void nor
   a function type, nor an array of either. *)
let require_size loc what name (ty : Ir.ty) =
  let rec sizeless = function
    | Ir.Tvoid | Ir.Tfun _ -> true
    | Ir.Tarray (t, _) -> sizeless t
    | _ -> false
  in
  if sizeless ty then
    err loc "%s %s has type %s, which has no size" what name (Ir.type_to_string ty)

(* ------------------------------------------------------------------ *)
(* Constant expression evaluation (for array sizes, enums, inits).    *)
(* ------------------------------------------------------------------ *)

let rec const_eval env (e : Ast.expr) : int64 =
  let loc = e.Ast.eloc in
  match e.Ast.e with
  | Ast.Eint n -> n
  | Ast.Echar c -> Int64.of_int (Char.code c)
  | Ast.Eident name -> (
      match Hashtbl.find_opt env.prog.Ir.enum_items name with
      | Some v -> v
      | None -> err loc "identifier %s is not a compile-time constant" name)
  | Ast.Eunop (Ast.Neg, e1) -> Int64.neg (const_eval env e1)
  | Ast.Eunop (Ast.Bitnot, e1) -> Int64.lognot (const_eval env e1)
  | Ast.Eunop (Ast.Lognot, e1) -> if const_eval env e1 = 0L then 1L else 0L
  | Ast.Ebinop (op, e1, e2) -> (
      let a = const_eval env e1 and b = const_eval env e2 in
      let open Int64 in
      match op with
      | Ast.Add -> add a b
      | Ast.Sub -> sub a b
      | Ast.Mul -> mul a b
      | Ast.Div -> if b = 0L then err loc "division by zero in constant" else div a b
      | Ast.Mod -> if b = 0L then err loc "mod by zero in constant" else rem a b
      | Ast.Shl -> shift_left a (to_int b)
      | Ast.Shr -> shift_right a (to_int b)
      | Ast.Bitand -> logand a b
      | Ast.Bitor -> logor a b
      | Ast.Bitxor -> logxor a b
      | Ast.Lt -> if a < b then 1L else 0L
      | Ast.Gt -> if a > b then 1L else 0L
      | Ast.Le -> if a <= b then 1L else 0L
      | Ast.Ge -> if a >= b then 1L else 0L
      | Ast.Eq -> if a = b then 1L else 0L
      | Ast.Ne -> if a <> b then 1L else 0L
      | Ast.Logand -> if a <> 0L && b <> 0L then 1L else 0L
      | Ast.Logor -> if a <> 0L || b <> 0L then 1L else 0L)
  | Ast.Esizeof_type t ->
      let ty = resolve_type env Loc.dummy t in
      Int64.of_int (size_of env loc ty)
  | Ast.Econd (c, a, b) -> if const_eval env c <> 0L then const_eval env a else const_eval env b
  | _ -> err loc "expression is not a compile-time constant"

(* ------------------------------------------------------------------ *)
(* Type resolution: Ast.ty -> Ir.ty.                                  *)
(* ------------------------------------------------------------------ *)

and resolve_type env loc (t : Ast.ty) : Ir.ty =
  match t with
  | Ast.Tvoid -> Ir.Tvoid
  | Ast.Tint (k, s) -> Ir.Tint (k, s)
  | Ast.Tptr (t1, annots) ->
      let base = resolve_type env loc t1 in
      let a =
        List.fold_left
          (fun (a : Ir.annots) annot ->
            match annot with
            | Ast.Acount e -> { a with Ir.a_count = Some (elab_annot_exp env e) }
            | Ast.Anullterm -> { a with Ir.a_nullterm = true }
            | Ast.Aopt -> { a with Ir.a_opt = true }
            | Ast.Atrusted -> { a with Ir.a_trusted = true }
            | Ast.Auser -> { a with Ir.a_user = true })
          Ir.no_annots annots
      in
      Ir.Tptr (base, a)
  | Ast.Tarray (t1, size) ->
      let base = resolve_type env loc t1 in
      let n =
        match size with
        | Some e -> Int64.to_int (const_eval env e)
        | None -> err loc "array type needs an explicit size in KC"
      in
      if n <= 0 then err loc "array size must be positive";
      Ir.Tarray (base, n)
  | Ast.Tfun (ret, params, _variadic) ->
      Ir.Tfun (resolve_type env loc ret, List.map (fun p -> resolve_type env loc p.Ast.pty) params)
  | Ast.Tnamed name -> (
      match Hashtbl.find_opt env.typedefs name with
      | Some t1 -> resolve_type env loc t1
      | None -> err loc "unknown typedef %s" name)
  | Ast.Tstruct tag | Ast.Tunion tag ->
      if not (Hashtbl.mem env.prog.Ir.comps tag) then err loc "unknown struct/union %s" tag;
      Ir.Tcomp tag
  | Ast.Tenum _ -> Ir.int_type

(* Elaborate an annotation expression ([__count(e)]): constants,
   parameters/locals in function scope, sibling fields in a struct
   definition, and +,-,* arithmetic over those. *)
and elab_annot_exp env (e : Ast.expr) : Ir.exp =
  let loc = e.Ast.eloc in
  match e.Ast.e with
  | Ast.Eint n -> Ir.const_int n
  | Ast.Eident name -> (
      match env.field_ctx with
      | Some (tag, fields) -> (
          match List.find_opt (fun f -> f.Ast.pname = name) fields with
          | Some f ->
              let fty = resolve_type env loc f.Ast.pty in
              if not (Ir.is_integral fty) then err loc "__count field %s must be integral" name;
              Ir.mk_exp (Ir.Eself_field (tag, name)) fty
          | None -> err loc "__count refers to unknown sibling field %s" name)
      | None -> (
          match lookup_local env name with
          | Some v ->
              if not (Ir.is_integral v.Ir.vty) then
                err loc "__count variable %s must be integral" name;
              Ir.mk_exp (Ir.Elval (Ir.Lvar v, [])) v.Ir.vty
          | None -> (
              match Hashtbl.find_opt env.prog.Ir.enum_items name with
              | Some v -> Ir.const_int v
              | None -> (
                  match Hashtbl.find_opt env.prog.Ir.glob_by_name name with
                  | Some v when Ir.is_integral v.Ir.vty ->
                      Ir.mk_exp (Ir.Elval (Ir.Lvar v, [])) v.Ir.vty
                  | _ -> err loc "__count refers to unknown variable %s" name))))
  | Ast.Ebinop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Shl | Ast.Shr) as op), e1, e2) ->
      let a = elab_annot_exp env e1 and b = elab_annot_exp env e2 in
      Ir.mk_exp (Ir.Ebinop (op, a, b)) Ir.long_type
  | Ast.Esizeof_type t ->
      let ty = resolve_type env loc t in
      Ir.const_int (Int64.of_int (size_of env loc ty))
  | _ -> err loc "unsupported expression form in __count annotation"

(* ------------------------------------------------------------------ *)
(* Conversions.                                                       *)
(* ------------------------------------------------------------------ *)

let int_rank = function Ast.Ichar -> 1 | Ast.Ishort -> 2 | Ast.Iint -> 3 | Ast.Ilong -> 4

let is_null_const (e : Ir.exp) = match e.Ir.e with Ir.Econst 0L -> true | _ -> false

(* Conversion to an erased-equal type keeps the expression (and its
   annotation-carrying type) unchanged: Deputy needs the caller-side
   bounds of arguments, not the callee's declared view. *)
let cast_to ty (e : Ir.exp) : Ir.exp =
  if Ir.eq_erased ty e.Ir.ety then e else Ir.mk_exp (Ir.Ecast (ty, e)) ty

(* Implicit conversion of [e] to [ty]; raises on incompatible types. *)
let convert loc (ty : Ir.ty) (e : Ir.exp) : Ir.exp =
  match (ty, e.Ir.ety) with
  | Ir.Tint _, Ir.Tint _ -> cast_to ty e
  | Ir.Tptr _, _ when is_null_const e -> cast_to ty e
  | Ir.Tptr (Ir.Tvoid, _), Ir.Tptr _ -> cast_to ty e
  | Ir.Tptr _, Ir.Tptr (Ir.Tvoid, _) -> cast_to ty e
  | Ir.Tptr (t1, _), Ir.Tptr (t2, _) when Ir.eq_erased t1 t2 -> cast_to ty e
  | Ir.Tptr (Ir.Tfun (r1, a1), _), Ir.Tptr (Ir.Tfun (r2, a2), _)
    when Ir.eq_erased r1 r2 && List.length a1 = List.length a2 && List.for_all2 Ir.eq_erased a1 a2
    ->
      cast_to ty e
  | Ir.Tvoid, _ -> e
  | _ when Ir.eq_erased ty e.Ir.ety -> e (* struct/array assignment *)
  | _ ->
      err loc "cannot implicitly convert %s to %s"
        (Ir.type_to_string e.Ir.ety) (Ir.type_to_string ty)

(* Usual arithmetic conversions, simplified: pick the operand type of
   highest rank; unsigned wins ties. *)
let common_int_type loc t1 t2 =
  match (t1, t2) with
  | Ir.Tint (k1, s1), Ir.Tint (k2, s2) ->
      let k = if int_rank k1 >= int_rank k2 then k1 else k2 in
      let k = if int_rank k < int_rank Ast.Iint then Ast.Iint else k in
      let s =
        if int_rank k1 = int_rank k2 then
          if s1 = Ast.Unsigned || s2 = Ast.Unsigned then Ast.Unsigned else Ast.Signed
        else if int_rank k1 > int_rank k2 then s1
        else s2
      in
      Ir.Tint (k, s)
  | _ -> err loc "expected integer operands"

(* ------------------------------------------------------------------ *)
(* Expression elaboration.                                            *)
(* ------------------------------------------------------------------ *)

(* Instructions emitted before the value of the expression is
   available (hoisted calls, assignments in value position). *)
type emitted = Ir.stmt list ref

let emit (acc : emitted) loc (i : Ir.instr) = acc := { Ir.sk = Ir.Sinstr i; sloc = loc } :: !acc

let fresh_temp env loc (ty : Ir.ty) : Ir.varinfo =
  match env.cur_fn with
  | None -> err loc "global initializer must not contain calls or side effects"
  | Some f ->
      incr env.temp_ctr;
      let v =
        {
          Ir.vname = Printf.sprintf "__t%d" !(env.temp_ctr);
          vid = fresh_vid env;
          vty = ty;
          vglob = false;
          vparam = false;
          vtemp = true;
          vaddrof = false;
        }
      in
      f.Ir.slocals <- v :: f.Ir.slocals;
      v

let rec find_field env loc tag fname : Ir.fieldinfo =
  try Ir.field_find env.prog tag fname
  with Invalid_argument _ -> err loc "struct %s has no field %s" tag fname

(* Resolve an identifier in expression position. *)
and resolve_ident env loc name : Ir.exp =
  match lookup_local env name with
  | Some v -> Ir.mk_exp (Ir.Elval (Ir.Lvar v, [])) v.Ir.vty
  | None -> (
      match Hashtbl.find_opt env.prog.Ir.enum_items name with
      | Some v -> Ir.const_int v
      | None -> (
          match Hashtbl.find_opt env.prog.Ir.glob_by_name name with
          | Some v -> Ir.mk_exp (Ir.Elval (Ir.Lvar v, [])) v.Ir.vty
          | None -> (
              match Ir.find_fun env.prog name with
              | Some f ->
                  let aty = List.map (fun v -> v.Ir.vty) f.Ir.sformals in
                  Ir.mk_exp (Ir.Efun name) (Ir.Tptr (Ir.Tfun (f.Ir.fret, aty), Ir.no_annots))
              | None -> err loc "unknown identifier %s" name)))

and elab_lval env acc (e : Ast.expr) : Ir.lval =
  let loc = e.Ast.eloc in
  match e.Ast.e with
  | Ast.Eident name -> (
      let v = resolve_ident env loc name in
      match v.Ir.e with
      | Ir.Elval lv -> lv
      | _ -> err loc "%s is not an lvalue" name)
  | Ast.Ederef e1 -> (
      let p = elab_exp env acc e1 in
      match p.Ir.ety with
      | Ir.Tptr _ -> (Ir.Lmem p, [])
      | t -> err loc "cannot dereference %s" (Ir.type_to_string t))
  | Ast.Eindex (arr, idx) -> (
      let i = elab_exp env acc idx in
      let i = convert loc Ir.long_type i in
      (* Array lvalue: extend the offset path. Pointer: pointer
         arithmetic then Lmem. *)
      match classify_array_or_ptr env acc arr with
      | `Array lv -> (fst lv, snd lv @ [ Ir.Oindex i ])
      | `Ptr p ->
          require_step env loc p;
          (Ir.Lmem (Ir.mk_exp (Ir.Ebinop (Ast.Add, p, i)) p.Ir.ety), []))
  | Ast.Efield (e1, fname) -> (
      let lv = elab_lval env acc e1 in
      match Ir.lval_type lv with
      | Ir.Tcomp tag ->
          let f = find_field env loc tag fname in
          (fst lv, snd lv @ [ Ir.Ofield f ])
      | t -> err loc "field access .%s on non-struct %s" fname (Ir.type_to_string t))
  | Ast.Earrow (e1, fname) -> (
      let p = elab_exp env acc e1 in
      match p.Ir.ety with
      | Ir.Tptr (Ir.Tcomp tag, _) ->
          let f = find_field env loc tag fname in
          (Ir.Lmem p, [ Ir.Ofield f ])
      | t -> err loc "-> on non-struct-pointer %s" (Ir.type_to_string t))
  | _ -> err loc "expression is not an lvalue"

(* For e[i]: decide whether e is an array lvalue (offset extension) or
   a pointer expression. *)
and classify_array_or_ptr env acc (e : Ast.expr) =
  let loc = e.Ast.eloc in
  match e.Ast.e with
  | Ast.Eident _ | Ast.Efield (_, _) | Ast.Earrow (_, _) | Ast.Ederef _ | Ast.Eindex (_, _) -> (
      let lv = elab_lval env acc e in
      match Ir.lval_type lv with
      | Ir.Tarray _ -> `Array lv
      | Ir.Tptr _ as t -> `Ptr (Ir.mk_exp (Ir.Elval lv) t)
      | t -> err loc "cannot index %s" (Ir.type_to_string t))
  | _ -> (
      let p = elab_exp env acc e in
      match p.Ir.ety with
      | Ir.Tptr _ -> `Ptr p
      | t -> err loc "cannot index %s" (Ir.type_to_string t))

(* Elaborate an expression to a value, emitting prefix instructions
   into [acc]. *)
and elab_exp env acc (e : Ast.expr) : Ir.exp =
  let loc = e.Ast.eloc in
  match e.Ast.e with
  | Ast.Eint n ->
      (* Literals that don't fit in int become long. *)
      if n >= -2147483648L && n <= 4294967295L then Ir.const_int n
      else Ir.const_int ~ty:Ir.long_type n
  | Ast.Echar c -> Ir.const_int ~ty:Ir.char_type (Int64.of_int (Char.code c))
  | Ast.Estr s ->
      let a =
        {
          Ir.a_count = Some (Ir.const_int (Int64.of_int (String.length s)));
          a_nullterm = true;
          a_opt = false;
          a_trusted = false;
          a_user = false;
        }
      in
      Ir.mk_exp (Ir.Estr s) (Ir.Tptr (Ir.char_type, a))
  | Ast.Eident _ | Ast.Ederef _ | Ast.Eindex _ | Ast.Efield _ | Ast.Earrow _ -> (
      match e.Ast.e with
      | Ast.Eident name -> (
          let v = resolve_ident env loc name in
          match v.Ir.ety with
          | Ir.Tarray (elt, n) ->
              let lv = match v.Ir.e with Ir.Elval lv -> lv | _ -> assert false in
              decay_array lv elt n
          | _ -> v)
      | _ -> (
          let lv = elab_lval env acc e in
          match Ir.lval_type lv with
          | Ir.Tarray (elt, n) -> decay_array lv elt n
          | ty -> Ir.mk_exp (Ir.Elval lv) ty))
  | Ast.Eunop (op, e1) -> (
      let v = elab_exp env acc e1 in
      match op with
      | Ast.Neg | Ast.Bitnot ->
          if not (Ir.is_integral v.Ir.ety) then err loc "unary %s needs an integer" "op";
          let ty = common_int_type loc v.Ir.ety Ir.int_type in
          Ir.mk_exp (Ir.Eunop (op, cast_to ty v)) ty
      | Ast.Lognot ->
          if not (Ir.is_integral v.Ir.ety || Ir.is_pointer v.Ir.ety) then
            err loc "! needs a scalar";
          Ir.mk_exp (Ir.Eunop (op, v)) Ir.int_type)
  | Ast.Ebinop (op, e1, e2) -> elab_binop env acc loc op e1 e2
  | Ast.Eassign (lhs, rhs) ->
      let lv = elab_lval env acc lhs in
      let ty = Ir.lval_type lv in
      (* The store writes [sizeof] the lvalue's type: none through [void *]. *)
      ignore (size_of env loc ty);
      let v = convert loc ty (elab_exp env acc rhs) in
      emit acc loc (Ir.Iset (lv, v));
      Ir.mk_exp (Ir.Elval lv) ty
  | Ast.Eassign_op (op, lhs, rhs) ->
      let lv = elab_lval env acc lhs in
      let ty = Ir.lval_type lv in
      let cur = Ir.mk_exp (Ir.Elval lv) ty in
      let rhs' = elab_exp env acc rhs in
      let result = apply_binop env loc op cur rhs' in
      emit acc loc (Ir.Iset (lv, convert loc ty result));
      Ir.mk_exp (Ir.Elval lv) ty
  | Ast.Eincr (is_incr, is_prefix, e1) ->
      let lv = elab_lval env acc e1 in
      let ty = Ir.lval_type lv in
      let cur = Ir.mk_exp (Ir.Elval lv) ty in
      let op = if is_incr then Ast.Add else Ast.Sub in
      if is_prefix then begin
        let next = apply_binop env loc op cur Ir.one in
        emit acc loc (Ir.Iset (lv, convert loc ty next));
        Ir.mk_exp (Ir.Elval lv) ty
      end
      else begin
        let t = fresh_temp env loc ty in
        emit acc loc (Ir.Iset ((Ir.Lvar t, []), cur));
        let old = Ir.mk_exp (Ir.Elval (Ir.Lvar t, [])) ty in
        let next = apply_binop env loc op old Ir.one in
        emit acc loc (Ir.Iset (lv, convert loc ty next));
        old
      end
  | Ast.Ecall (f, args) -> (
      match elab_call env acc loc f args with
      | Some v -> v
      | None -> err loc "void function call used as a value")
  | Ast.Eaddrof e1 -> (
      match e1.Ast.e with
      | Ast.Eident name when lookup_local env name = None
                             && not (Hashtbl.mem env.prog.Ir.glob_by_name name)
                             && Ir.find_fun env.prog name <> None ->
          resolve_ident env loc name (* &f on a function is just f *)
      | _ ->
          let lv = elab_lval env acc e1 in
          mark_addrof lv;
          let ty = Ir.lval_type lv in
          Ir.mk_exp (Ir.Eaddrof lv)
            (Ir.Tptr (ty, { Ir.no_annots with Ir.a_count = Some Ir.one })))
  | Ast.Ecast (t, e1) ->
      let ty = resolve_type env loc t in
      let v = elab_exp env acc e1 in
      explicit_cast loc ty v
  | Ast.Esizeof_type t ->
      let ty = resolve_type env loc t in
      Ir.const_int ~ty:Ir.ulong_type (Int64.of_int (size_of env loc ty))
  | Ast.Esizeof_expr e1 ->
      (* sizeof does not evaluate its argument; elaborate it into a
         scratch accumulator for its type only. *)
      let scratch = ref [] in
      let v = elab_exp env scratch e1 in
      Ir.const_int ~ty:Ir.ulong_type (Int64.of_int (size_of env loc v.Ir.ety))
  | Ast.Econd (c, a, b) ->
      let cv = elab_exp env acc c in
      let scratch_a = ref [] and scratch_b = ref [] in
      let av = elab_exp env scratch_a a in
      let bv = elab_exp env scratch_b b in
      if !scratch_a <> [] || !scratch_b <> [] then
        err loc "function calls are not allowed inside ?: branches in KC";
      let ty =
        if Ir.is_integral av.Ir.ety && Ir.is_integral bv.Ir.ety then
          common_int_type loc av.Ir.ety bv.Ir.ety
        else if Ir.is_pointer av.Ir.ety then av.Ir.ety
        else bv.Ir.ety
      in
      Ir.mk_exp (Ir.Econd (cv, convert loc ty av, convert loc ty bv)) ty

and decay_array lv elt n =
  mark_addrof lv;
  let a = { Ir.no_annots with Ir.a_count = Some (Ir.const_int (Int64.of_int n)) } in
  Ir.mk_exp (Ir.Estartof lv) (Ir.Tptr (elt, a))

and mark_addrof (host, _) =
  match host with Ir.Lvar v -> v.Ir.vaddrof <- true | Ir.Lmem _ -> ()

(* Explicit casts are permissive: any scalar-to-scalar conversion is
   accepted; Deputy later decides which casts need trust. *)
and explicit_cast loc ty v =
  match (ty, v.Ir.ety) with
  | (Ir.Tint _ | Ir.Tptr _), (Ir.Tint _ | Ir.Tptr _) -> cast_to ty v
  | Ir.Tvoid, _ -> v
  | _ -> err loc "invalid cast from %s to %s" (Ir.type_to_string v.Ir.ety) (Ir.type_to_string ty)

and apply_binop env loc op (a : Ir.exp) (b : Ir.exp) : Ir.exp =
  match op with
  | Ast.Add | Ast.Sub -> (
      match (a.Ir.ety, b.Ir.ety) with
      | Ir.Tptr _, Ir.Tint _ ->
          require_step env loc a;
          Ir.mk_exp (Ir.Ebinop (op, a, convert loc Ir.long_type b)) a.Ir.ety
      | Ir.Tint _, Ir.Tptr _ when op = Ast.Add ->
          require_step env loc b;
          Ir.mk_exp (Ir.Ebinop (op, b, convert loc Ir.long_type a)) b.Ir.ety
      | Ir.Tptr _, Ir.Tptr _ when op = Ast.Sub ->
          require_step env loc a;
          require_step env loc b;
          Ir.mk_exp (Ir.Ebinop (op, a, b)) Ir.long_type
      | Ir.Tint _, Ir.Tint _ ->
          let ty = common_int_type loc a.Ir.ety b.Ir.ety in
          Ir.mk_exp (Ir.Ebinop (op, cast_to ty a, cast_to ty b)) ty
      | _ ->
          err loc "invalid operands to %s: %s, %s" (Ast.binop_to_string op)
            (Ir.type_to_string a.Ir.ety) (Ir.type_to_string b.Ir.ety))
  | Ast.Mul | Ast.Div | Ast.Mod | Ast.Shl | Ast.Shr | Ast.Bitand | Ast.Bitor | Ast.Bitxor ->
      if not (Ir.is_integral a.Ir.ety && Ir.is_integral b.Ir.ety) then
        err loc "invalid operands to %s" (Ast.binop_to_string op);
      let ty =
        match op with
        | Ast.Shl | Ast.Shr -> common_int_type loc a.Ir.ety Ir.int_type
        | _ -> common_int_type loc a.Ir.ety b.Ir.ety
      in
      let b' =
        match op with
        | Ast.Shl | Ast.Shr -> convert loc Ir.int_type b
        | _ -> cast_to ty b
      in
      Ir.mk_exp (Ir.Ebinop (op, cast_to ty a, b')) ty
  | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Ne -> (
      match (a.Ir.ety, b.Ir.ety) with
      | Ir.Tint _, Ir.Tint _ ->
          let ty = common_int_type loc a.Ir.ety b.Ir.ety in
          Ir.mk_exp (Ir.Ebinop (op, cast_to ty a, cast_to ty b)) Ir.int_type
      | Ir.Tptr _, Ir.Tptr _ -> Ir.mk_exp (Ir.Ebinop (op, a, b)) Ir.int_type
      | Ir.Tptr _, Ir.Tint _ when is_null_const b ->
          Ir.mk_exp (Ir.Ebinop (op, a, cast_to a.Ir.ety b)) Ir.int_type
      | Ir.Tint _, Ir.Tptr _ when is_null_const a ->
          Ir.mk_exp (Ir.Ebinop (op, cast_to b.Ir.ety a, b)) Ir.int_type
      | _ ->
          err loc "invalid comparison between %s and %s" (Ir.type_to_string a.Ir.ety)
            (Ir.type_to_string b.Ir.ety))
  | Ast.Logand | Ast.Logor ->
      (* Lazy; elaborated as Econd to preserve short-circuiting. *)
      let bz = Ir.mk_exp (Ir.Ebinop (Ast.Ne, b, cast_to b.Ir.ety Ir.zero)) Ir.int_type in
      if op = Ast.Logand then Ir.mk_exp (Ir.Econd (a, bz, Ir.zero)) Ir.int_type
      else Ir.mk_exp (Ir.Econd (a, Ir.one, bz)) Ir.int_type

and elab_binop env acc loc op e1 e2 =
  match op with
  | Ast.Logand | Ast.Logor ->
      let a = elab_exp env acc e1 in
      let scratch = ref [] in
      let b = elab_exp env scratch e2 in
      if !scratch <> [] then
        err loc "function calls are not allowed on the right of %s in KC"
          (Ast.binop_to_string op);
      apply_binop env loc op a b
  | _ ->
      let a = elab_exp env acc e1 in
      let b = elab_exp env acc e2 in
      apply_binop env loc op a b

(* Elaborate a call; returns None for void calls. *)
and elab_call env acc loc (f : Ast.expr) (args : Ast.expr list) : Ir.exp option =
  let target, ret_ty, param_tys, variadic =
    match f.Ast.e with
    | Ast.Eident name when lookup_local env name = None
                           && not (Hashtbl.mem env.prog.Ir.glob_by_name name) -> (
        match Ir.find_fun env.prog name with
        | Some fd ->
            ( Ir.Direct name,
              fd.Ir.fret,
              List.map (fun v -> v.Ir.vty) fd.Ir.sformals,
              fd.Ir.fextern (* extern/builtin functions are treated as variadic-tolerant *) )
        | None -> err loc "call to unknown function %s" name)
    | _ -> (
        let fv = elab_exp env acc f in
        match fv.Ir.ety with
        | Ir.Tptr (Ir.Tfun (ret, ptys), _) -> (Ir.Indirect fv, ret, ptys, false)
        | t -> err loc "call of non-function %s" (Ir.type_to_string t))
  in
  let n_params = List.length param_tys in
  let n_args = List.length args in
  if n_args < n_params || ((not variadic) && n_args > n_params) then
    err loc "wrong number of arguments: expected %d, got %d" n_params n_args;
  let args' =
    List.mapi
      (fun i a ->
        let v = elab_exp env acc a in
        if i < n_params then convert loc (List.nth param_tys i) v else v)
      args
  in
  match ret_ty with
  | Ir.Tvoid ->
      emit acc loc (Ir.Icall (None, target, args'));
      None
  | _ ->
      let t = fresh_temp env loc ret_ty in
      emit acc loc (Ir.Icall (Some (Ir.Lvar t, []), target, args'));
      Some (Ir.mk_exp (Ir.Elval (Ir.Lvar t, [])) ret_ty)

(* ------------------------------------------------------------------ *)
(* Statement elaboration.                                             *)
(* ------------------------------------------------------------------ *)

(* Elaborate an expression in statement position (value unused). The
   post-increment temporary is avoided so `i++;` becomes `i = i + 1`. *)
let rec elab_for_effect env acc loc (e : Ast.expr) : unit =
  match e.Ast.e with
  | Ast.Ecall (f, args) -> ignore (elab_call env acc loc f args)
  | Ast.Eincr (is_incr, _, e1) ->
      let op = if is_incr then Ast.Add else Ast.Sub in
      let one = Ast.mk_expr ~loc:e.Ast.eloc (Ast.Eint 1L) in
      ignore (elab_exp env acc (Ast.mk_expr ~loc:e.Ast.eloc (Ast.Eassign_op (op, e1, one))))
  | _ -> ignore (elab_exp env acc e)

and elab_stmt env (s : Ast.stmt) : Ir.stmt list =
  let loc = s.Ast.sloc in
  let mk sk = { Ir.sk; sloc = loc } in
  match s.Ast.s with
  | Ast.Sexpr e ->
      let acc = ref [] in
      elab_for_effect env acc loc e;
      List.rev !acc
  | Ast.Sdecl d ->
      let ty = resolve_type env loc d.Ast.dty in
      require_size loc "variable" d.Ast.dname ty;
      let v =
        {
          Ir.vname = d.Ast.dname;
          vid = fresh_vid env;
          vty = ty;
          vglob = false;
          vparam = false;
          vtemp = false;
          vaddrof = false;
        }
      in
      (match env.cur_fn with
      | Some f -> f.Ir.slocals <- v :: f.Ir.slocals
      | None -> err loc "declaration outside function");
      define_local env v;
      (match d.Ast.dinit with
      | None -> []
      | Some ie ->
          let acc = ref [] in
          let value = convert loc ty (elab_exp env acc ie) in
          emit acc loc (Ir.Iset ((Ir.Lvar v, []), value));
          List.rev !acc)
  | Ast.Sif (c, b1, b2) ->
      let acc = ref [] in
      let cv = elab_exp env acc c in
      let then_ = elab_block env b1 and else_ = elab_block env b2 in
      List.rev_append !acc [ mk (Ir.Sif (cv, then_, else_)) ]
  | Ast.Swhile (c, body) ->
      let acc = ref [] in
      let cv = elab_exp env acc c in
      if !acc <> [] then err loc "function calls are not allowed in loop conditions in KC";
      [ mk (Ir.Swhile (cv, elab_block env body, [])) ]
  | Ast.Sdowhile (body, c) ->
      let acc = ref [] in
      let cv = elab_exp env acc c in
      if !acc <> [] then err loc "function calls are not allowed in loop conditions in KC";
      [ mk (Ir.Sdowhile (elab_block env body, cv)) ]
  | Ast.Sfor (init, cond, step, body) ->
      push_scope env;
      let init_stmts = match init with None -> [] | Some s1 -> elab_stmt env s1 in
      let cv =
        match cond with
        | None -> Ir.one
        | Some c ->
            let acc = ref [] in
            let cv = elab_exp env acc c in
            if !acc <> [] then err loc "function calls are not allowed in loop conditions in KC";
            cv
      in
      let step_stmts =
        match step with
        | None -> []
        | Some e ->
            let acc = ref [] in
            elab_for_effect env acc loc e;
            List.rev !acc
      in
      let body' = elab_block env body in
      pop_scope env;
      init_stmts @ [ mk (Ir.Swhile (cv, body', step_stmts)) ]
  | Ast.Sswitch (e, cases) ->
      let acc = ref [] in
      let v = elab_exp env acc e in
      if not (Ir.is_integral v.Ir.ety) then err loc "switch needs an integer";
      let cases' =
        List.map
          (fun c ->
            {
              Ir.cvals = c.Ast.cases;
              cdefault = c.Ast.is_default;
              cbody = elab_block env c.Ast.body;
            })
          cases
      in
      List.rev_append !acc [ mk (Ir.Sswitch (v, cases')) ]
  | Ast.Sbreak -> [ mk Ir.Sbreak ]
  | Ast.Scontinue -> [ mk Ir.Scontinue ]
  | Ast.Sreturn e -> (
      let fn = match env.cur_fn with Some f -> f | None -> err loc "return outside function" in
      match (e, fn.Ir.fret) with
      | None, Ir.Tvoid -> [ mk (Ir.Sreturn None) ]
      | None, _ -> err loc "return without a value in non-void function %s" fn.Ir.fname
      | Some _, Ir.Tvoid -> err loc "return with a value in void function %s" fn.Ir.fname
      | Some e1, ret ->
          let acc = ref [] in
          let v = convert loc ret (elab_exp env acc e1) in
          List.rev_append !acc [ mk (Ir.Sreturn (Some v)) ])
  | Ast.Sblock b -> [ mk (Ir.Sblock (elab_block env b)) ]
  | Ast.Sdelayed_free b -> [ mk (Ir.Sdelayed (elab_block env b)) ]
  | Ast.Strusted b -> [ mk (Ir.Strusted (elab_block env b)) ]

and elab_block env (b : Ast.block) : Ir.block =
  push_scope env;
  let stmts = List.concat_map (elab_stmt env) b in
  pop_scope env;
  stmts

(* ------------------------------------------------------------------ *)
(* Globals.                                                           *)
(* ------------------------------------------------------------------ *)

let elab_field env loc tag fields (p : Ast.param) : Ir.fieldinfo =
  env.field_ctx <- Some (tag, fields);
  let fty = resolve_type env loc p.Ast.pty in
  env.field_ctx <- None;
  require_size loc "field" (tag ^ "." ^ p.Ast.pname) fty;
  { Ir.fcomp = tag; fname = p.Ast.pname; fty }

let rec elab_init env loc (ty : Ir.ty) (i : Ast.init) : Ir.ginit =
  match (i, ty) with
  | Ast.Iexpr e, _ ->
      let acc = ref [] in
      let v = elab_exp env acc e in
      if !acc <> [] then err loc "global initializer must not contain calls";
      Ir.Gi_exp (convert loc ty v)
  | Ast.Ilist items, Ir.Tarray (elt, n) ->
      if List.length items > n then err loc "too many initializers for array";
      Ir.Gi_list (List.map (elab_init env loc elt) items)
  | Ast.Ilist items, Ir.Tcomp tag ->
      let c = Ir.comp_find env.prog tag in
      if not c.Ir.cstruct then err loc "brace initializer for union is not supported";
      if List.length items > List.length c.Ir.cfields then
        err loc "too many initializers for struct %s" tag;
      Ir.Gi_list
        (List.map2
           (fun f i1 -> elab_init env loc f.Ir.fty i1)
           (List.filteri (fun k _ -> k < List.length items) c.Ir.cfields)
           items)
  | Ast.Ilist _, _ -> err loc "brace initializer for scalar type"

(* Pointer annotations dropped: two declarations of a function are
   compared on erased types, and a prototype's [__count] may name a
   parameter that is not in scope here. *)
let rec erase_annots : Ast.ty -> Ast.ty = function
  | Ast.Tptr (t, _) -> Ast.Tptr (erase_annots t, [])
  | Ast.Tarray (t, n) -> Ast.Tarray (erase_annots t, n)
  | Ast.Tfun (r, ps, v) ->
      Ast.Tfun (erase_annots r, List.map (fun p -> { p with Ast.pty = erase_annots p.Ast.pty }) ps, v)
  | t -> t

(* A definition completes an earlier prototype; it comes back with the
   prototype's parameter types, which the definition's must match (the
   return types are compared here). A second prototype must match the
   declaration before it. *)
let declare_function env loc (fname : string) fret fparams fannots fstatic ~has_body =
  match Ir.find_fun env.prog fname with
  | Some existing when has_body && existing.Ir.fextern ->
      if not (Ir.eq_erased (resolve_type env loc fret) existing.Ir.fret) then
        err loc "conflicting types for %s" fname;
      Some (existing, Some (List.map (fun (v : Ir.varinfo) -> v.Ir.vty) existing.Ir.sformals))
  | Some existing when not has_body ->
      let ptys =
        List.map
          (fun (p : Ast.param) ->
            match resolve_type env loc (erase_annots p.Ast.pty) with
            | Ir.Tarray (t, _) -> Ir.Tptr (t, Ir.no_annots)
            | t -> t)
          fparams
      in
      if
        not
          (Ir.eq_erased (resolve_type env loc fret) existing.Ir.fret
          && List.compare_lengths ptys existing.Ir.sformals = 0
          && List.for_all2 (fun t (v : Ir.varinfo) -> Ir.eq_erased t v.Ir.vty) ptys
               existing.Ir.sformals)
      then err loc "conflicting types for %s" fname;
      None
  | Some _ -> err loc "function %s is defined twice" fname
  | None ->
      let ret = resolve_type env loc fret in
      let fd =
        {
          Ir.fname;
          fid = fresh_vid env;
          sformals = [];
          slocals = [];
          fret = ret;
          fbody = [];
          fannots;
          fstatic;
          floc = loc;
          fextern = true;
        }
      in
      Hashtbl.replace env.prog.Ir.fun_by_name fname fd;
      Some (fd, None)

let elab_function_body ?proto env loc (fd : Ir.fundec) (fparams : Ast.param list)
    (body : Ast.block option) =
  (* Formals: declared in scope before their (possibly dependent)
     types are resolved, so __count may reference any parameter. *)
  push_scope env;
  env.cur_fn <- Some fd;
  let formals =
    List.map
      (fun p ->
        let v =
          {
            Ir.vname = p.Ast.pname;
            vid = fresh_vid env;
            vty = Ir.int_type (* placeholder; fixed below *);
            vglob = false;
            vparam = true;
            vtemp = false;
            vaddrof = false;
          }
        in
        define_local env v;
        v)
      fparams
  in
  List.iter2
    (fun (v : Ir.varinfo) (p : Ast.param) ->
      let ty = resolve_type env loc p.Ast.pty in
      let ty = match ty with Ir.Tarray (t, _) -> Ir.Tptr (t, Ir.no_annots) | t -> t in
      v.Ir.vty <- ty)
    formals fparams;
  Option.iter
    (fun ptys ->
      if
        List.compare_lengths ptys formals <> 0
        || not (List.for_all2 (fun t (v : Ir.varinfo) -> Ir.eq_erased t v.Ir.vty) ptys formals)
      then err loc "conflicting types for %s" fd.Ir.fname)
    proto;
  (* Annotation expressions were elaborated against placeholder formal
     types; re-validate them now that every formal has its real type. *)
  let validate_count_exp (e : Ir.exp) =
    Ir.fold_exp
      (fun () (sub : Ir.exp) ->
        match sub.Ir.e with
        | Ir.Elval (Ir.Lvar v, []) when not (Ir.is_integral v.Ir.vty) ->
            err loc "__count variable %s must be integral" v.Ir.vname
        | _ -> ())
      () e
  in
  let rec validate_ty = function
    | Ir.Tptr (t, a) ->
        Option.iter validate_count_exp a.Ir.a_count;
        validate_ty t
    | Ir.Tarray (t, _) -> validate_ty t
    | Ir.Tfun (r, args) ->
        validate_ty r;
        List.iter validate_ty args
    | Ir.Tvoid | Ir.Tint _ | Ir.Tcomp _ -> ()
  in
  List.iter (fun (v : Ir.varinfo) -> validate_ty v.Ir.vty) formals;
  fd.Ir.sformals <- formals;
  (match body with
  | None -> ()
  | Some b ->
      let stmts = elab_block env b in
      fd.Ir.fbody <- stmts);
  env.cur_fn <- None;
  pop_scope env

let elab_global env ((g, loc) : Ast.global * Loc.t) =
  match g with
  | Ast.Gtag_decl _ | Ast.Gtypedef _ | Ast.Gcomp _ | Ast.Genum _ -> () (* handled in pass A *)
  | Ast.Gvar { vname; vty; vinit; vstatic = _ } ->
      if Hashtbl.mem env.prog.Ir.glob_by_name vname then err loc "global %s redefined" vname
      else begin
        let ty = resolve_type env loc vty in
        require_size loc "variable" vname ty;
        let v =
          {
            Ir.vname;
            vid = fresh_vid env;
            vty = ty;
            vglob = true;
            vparam = false;
            vtemp = false;
            vaddrof = false;
          }
        in
        Hashtbl.replace env.prog.Ir.glob_by_name vname v;
        let init = Option.map (elab_init env loc ty) vinit in
        env.prog.Ir.globals <- (v, init) :: env.prog.Ir.globals
      end
  | Ast.Gfun { fname; fret; fparams; fannots; fbody; fstatic; floc } -> (
      match
        declare_function env floc fname fret fparams fannots fstatic ~has_body:(fbody <> None)
      with
      | None -> ()
      | Some (fd, proto) ->
          if fbody <> None then begin
            fd.Ir.fextern <- false;
            elab_function_body ?proto env floc fd fparams fbody;
            fd.Ir.slocals <- List.rev fd.Ir.slocals;
            env.prog.Ir.funcs <- fd :: env.prog.Ir.funcs
          end
          else elab_function_body env floc fd fparams None)

(* Pass A: collect typedefs, struct/union tags and enum items. *)
let collect_types env (units : Ast.unit_ list) =
  (* A1: register every tag so mutually recursive pointers resolve,
     and record typedefs and enum values. *)
  List.iter
    (fun u ->
      List.iter
        (fun (g, loc) ->
          match g with
          | Ast.Gtypedef (name, ty) -> Hashtbl.replace env.typedefs name ty
          | Ast.Gcomp (is_struct, tag, _) ->
              if Hashtbl.mem env.prog.Ir.comps tag then err loc "struct/union %s redefined" tag;
              Hashtbl.replace env.prog.Ir.comps tag
                { Ir.cname = tag; cstruct = is_struct; cfields = [] }
          | Ast.Genum (_, items) ->
              let next = ref 0L in
              List.iter
                (fun (name, v) ->
                  let value = match v with Some v -> v | None -> !next in
                  if Hashtbl.mem env.prog.Ir.enum_items name then
                    err loc "enumerator %s redefined" name;
                  Hashtbl.replace env.prog.Ir.enum_items name value;
                  next := Int64.add value 1L)
                items
          | Ast.Gtag_decl _ | Ast.Gvar _ | Ast.Gfun _ -> ())
        u.Ast.globals)
    units;
  (* A2: elaborate fields, in declaration order. *)
  List.iter
    (fun u ->
      List.iter
        (fun (g, loc) ->
          match g with
          | Ast.Gcomp (is_struct, tag, fields) ->
              let fis = List.map (elab_field env loc tag fields) fields in
              Hashtbl.replace env.prog.Ir.comps tag
                { Ir.cname = tag; cstruct = is_struct; cfields = fis }
          | Ast.Gtag_decl _ | Ast.Gtypedef _ | Ast.Genum _ | Ast.Gvar _ | Ast.Gfun _ -> ())
        u.Ast.globals)
    units;
  (* A3: a struct or union that holds itself by value, directly or
     through its members, has no size (the layout would recurse
     forever). [sized] holds the tags already shown to nest finitely. *)
  let sized = Hashtbl.create 16 in
  let rec by_value = function
    | Ir.Tcomp t -> Some t
    | Ir.Tarray (t, _) -> by_value t
    | _ -> None
  in
  let rec nest loc path tag =
    if List.mem tag path then err loc "struct/union %s contains itself" tag;
    if not (Hashtbl.mem sized tag) then begin
      List.iter
        (fun (f : Ir.fieldinfo) -> Option.iter (nest loc (tag :: path)) (by_value f.Ir.fty))
        (Ir.comp_find env.prog tag).Ir.cfields;
      Hashtbl.replace sized tag ()
    end
  in
  List.iter
    (fun u ->
      List.iter
        (fun (g, loc) -> match g with Ast.Gcomp (_, tag, _) -> nest loc [] tag | _ -> ())
        u.Ast.globals)
    units

(* ------------------------------------------------------------------ *)
(* Units                                                              *)
(* ------------------------------------------------------------------ *)

(* One parsed unit with the inputs its parse is a function of:
   [Parser.parse_unit] reads nothing but the unit's name, its source
   and the typedef names earlier units put in scope, and the AST has
   no mutable field. *)
type unit_parse = { p_name : string; p_source : string; p_typedefs : string list; p_ast : Ast.unit_ }
type parsed = { p_units : unit_parse list; p_reparsed : int }

let reparsed p = p.p_reparsed

(* Parse (name, source) pairs, threading typedef names through in
   order. A unit of [prev] whose name, source bytes and typedef names
   in scope all equal this one's is reused as it is: its parse would
   produce the same AST, whichever parse it came from. *)
let parse_units ?prev (sources : (string * string) list) : parsed =
  let earlier name source typedefs =
    Option.bind prev (fun p ->
        List.find_opt
          (fun u ->
            String.equal u.p_name name && String.equal u.p_source source
            && List.equal String.equal u.p_typedefs typedefs)
          p.p_units)
  in
  let _, units, reparsed =
    List.fold_left
      (fun (typedefs, units, n) (name, source) ->
        let u, n =
          match earlier name source typedefs with
          | Some u -> (u, n)
          | None ->
              let ast = Parser.parse_unit ~typedefs ~name source in
              ({ p_name = name; p_source = source; p_typedefs = typedefs; p_ast = ast }, n + 1)
        in
        (typedefs @ Parser.typedef_names u.p_ast, u :: units, n))
      ([], [], 0) sources
  in
  { p_units = List.rev units; p_reparsed = reparsed }

(* Type-check parsed units into a single program. Pass B conses
   globals and functions; they are put in program order once here. *)
let check_units (p : parsed) : Ir.program =
  let units = List.map (fun u -> u.p_ast) p.p_units in
  let env = make_env () in
  collect_types env units;
  List.iter (fun u -> List.iter (elab_global env) u.Ast.globals) units;
  env.prog.Ir.globals <- List.rev env.prog.Ir.globals;
  env.prog.Ir.funcs <- List.rev env.prog.Ir.funcs;
  env.prog

(* The one frontend path: parse, then check. *)
let check_sources (sources : (string * string) list) : Ir.program =
  check_units (parse_units sources)
