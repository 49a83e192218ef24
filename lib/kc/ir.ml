(* Typed intermediate representation of KC programs.

   The type checker ({!Typecheck}) elaborates the surface AST into this
   IR. Differences from the surface syntax, in the style of CIL:

   - every expression carries its type;
   - lvalues are explicit (host + offset path);
   - array-to-pointer decay and implicit conversions are explicit;
   - function calls appear only as instructions, never nested inside
     expressions (the elaborator hoists them into temporaries);
   - compound assignment, [++]/[--] and [for] loops are desugared;
   - runtime checks inserted by the analyses are first-class
     instructions with their own cost accounting. *)

type ikind = Ast.ikind
type sign = Ast.sign

type ty =
  | Tvoid
  | Tint of ikind * sign
  | Tptr of ty * annots
  | Tarray of ty * int
  | Tfun of ty * ty list
  | Tcomp of string (* struct or union tag; see {!compinfo} *)

(* Deputy-style pointer annotations; [count] expressions have been
   elaborated and may only mention parameters, locals, sibling struct
   fields (via {!Eself_field}) and constants. *)
and annots = {
  a_count : exp option;
  a_nullterm : bool;
  a_opt : bool;
  a_trusted : bool;
  a_user : bool; (* points into user space *)
}

and exp = { e : exp_node; ety : ty }

and exp_node =
  | Econst of int64
  | Estr of string (* string literal; becomes char * __nullterm *)
  | Elval of lval
  | Eunop of Ast.unop * exp
  | Ebinop of Ast.binop * exp * exp
  | Econd of exp * exp * exp (* no calls inside; lazy arms *)
  | Ecast of ty * exp
  | Eaddrof of lval
  | Estartof of lval (* array decay: &a[0] *)
  | Efun of string (* function designator, type Tptr(Tfun _) *)
  | Eself_field of string * string (* comp tag, field name: used only
                                      inside count annotations of struct
                                      fields; means "this.field" *)

and lval = lhost * offset list
and lhost = Lvar of varinfo | Lmem of exp
and offset = Ofield of fieldinfo | Oindex of exp

and varinfo = {
  vname : string;
  vid : int;
  mutable vty : ty;
  vglob : bool;
  vparam : bool;
  vtemp : bool; (* compiler-introduced temporary *)
  mutable vaddrof : bool; (* address taken somewhere *)
}

and fieldinfo = { fcomp : string; fname : string; fty : ty }

type compinfo = { cname : string; cstruct : bool; cfields : fieldinfo list }

(* Runtime checks. Inserted by Deputy / BlockStop instrumentation; the
   VM evaluates them and raises a trap when they fail. *)
type check =
  | Ck_nonnull of exp
  | Ck_le of exp * exp (* e1 <= e2, signed 64-bit *)
  | Ck_lt of exp * exp (* e1 < e2 *)
  | Ck_nt_next of exp * int (* nullterm advance: *(p) != 0; int = elem width *)
  | Ck_not_atomic (* BlockStop: panic if interrupts are disabled *)

type call_target = Direct of string | Indirect of exp

type instr =
  | Iset of lval * exp
  | Icall of lval option * call_target * exp list
  | Icheck of check * string (* reason, for diagnostics *)
  | Irc_inc of exp (* CCount: increment refcount of target chunk *)
  | Irc_dec of exp (* CCount: decrement refcount of target chunk *)
  | Irc_update of lval * exp
    (* CCount pointer-write protocol for `slot = e`: increment the
       refcount of e's target, then decrement the refcount of the
       slot's old target, before the store itself. Skipped at runtime
       when the slot lives on the stack (locals are untracked, paper
       footnote 2). *)

type stmt = { sk : stmt_node; sloc : Loc.t }

and stmt_node =
  | Sinstr of instr
  | Sif of exp * block * block
  | Swhile of exp * block * block (* cond, body, step-block (for-loops) *)
  | Sdowhile of block * exp
  | Sswitch of exp * case list
  | Sbreak
  | Scontinue
  | Sreturn of exp option
  | Sblock of block
  | Sdelayed of block (* CCount delayed-free scope *)
  | Strusted of block (* checks suppressed inside *)

and case = { cvals : int64 list; cdefault : bool; cbody : block }
and block = stmt list

type fun_annot = Ast.fun_annot

type fundec = {
  fname : string;
  fid : int;
  mutable sformals : varinfo list;
  mutable slocals : varinfo list; (* includes temporaries *)
  fret : ty;
  mutable fbody : block;
  fannots : fun_annot list;
  fstatic : bool;
  floc : Loc.t;
  mutable fextern : bool; (* declared but not defined: VM builtin or stub *)
}

type ginit = Gi_exp of exp | Gi_list of ginit list

type program = {
  comps : (string, compinfo) Hashtbl.t;
  enum_items : (string, int64) Hashtbl.t; (* enumerator -> value *)
  mutable globals : (varinfo * ginit option) list; (* in program order *)
  mutable funcs : fundec list; (* defined functions, in program order *)
  fun_by_name : (string, fundec) Hashtbl.t;
  glob_by_name : (string, varinfo) Hashtbl.t;
}

let no_annots =
  { a_count = None; a_nullterm = false; a_opt = false; a_trusted = false; a_user = false }

let mk_exp e ety = { e; ety }
let int_type = Tint (Ast.Iint, Ast.Signed)
let uint_type = Tint (Ast.Iint, Ast.Unsigned)
let char_type = Tint (Ast.Ichar, Ast.Unsigned)
let long_type = Tint (Ast.Ilong, Ast.Signed)
let ulong_type = Tint (Ast.Ilong, Ast.Unsigned)
let const_int ?(ty = int_type) n = mk_exp (Econst n) ty
let zero = const_int 0L
let one = const_int 1L

let comp_find prog tag =
  match Hashtbl.find_opt prog.comps tag with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "unknown struct/union tag %s" tag)

let field_find prog tag fname =
  let c = comp_find prog tag in
  match List.find_opt (fun (f : fieldinfo) -> f.fname = fname) c.cfields with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "no field %s in %s" fname tag)

let find_fun prog name = Hashtbl.find_opt prog.fun_by_name name

(* A view of [p] whose fundecs can be re-instrumented (fbody
   reassigned) without disturbing the original. The stmt trees, types
   and varinfos are shared: the instrumentation passes replace bodies
   wholesale rather than mutating statements in place. *)
let copy_program p =
  let memo = Hashtbl.create 64 in
  let copy_fd (fd : fundec) =
    match Hashtbl.find_opt memo fd.fid with
    | Some fd' -> fd'
    | None ->
        let fd' = { fd with fname = fd.fname } in
        Hashtbl.add memo fd.fid fd';
        fd'
  in
  let funcs = List.map copy_fd p.funcs in
  let fun_by_name = Hashtbl.create (Hashtbl.length p.fun_by_name) in
  Hashtbl.iter (fun name fd -> Hashtbl.replace fun_by_name name (copy_fd fd)) p.fun_by_name;
  { p with funcs; fun_by_name }

let is_pointer = function Tptr _ -> true | _ -> false
let is_integral = function Tint _ -> true | _ -> false
let is_arith = is_integral

(* Structural type equality ignoring annotations (the erasure view). *)
let rec eq_erased a b =
  match (a, b) with
  | Tvoid, Tvoid -> true
  | Tint (k1, s1), Tint (k2, s2) -> k1 = k2 && s1 = s2
  | Tptr (t1, _), Tptr (t2, _) -> eq_erased t1 t2
  | Tarray (t1, n1), Tarray (t2, n2) -> n1 = n2 && eq_erased t1 t2
  | Tfun (r1, a1), Tfun (r2, a2) ->
      eq_erased r1 r2
      && List.length a1 = List.length a2
      && List.for_all2 eq_erased a1 a2
  | Tcomp c1, Tcomp c2 -> c1 = c2
  | (Tvoid | Tint _ | Tptr _ | Tarray _ | Tfun _ | Tcomp _), _ -> false

let annots_of = function Tptr (_, a) -> a | _ -> no_annots

(* The static type of an lvalue, by the type checker's rules; the
   elaborator types the lvalues it builds, all well-typed, with it. A
   non-pointer host or an index into a non-array keeps its type; the
   VM's [Vmstate.lval_type] traps on such ill-typed IR instead. *)
let lval_type ((host, offs) : lval) : ty =
  let base =
    match host with Lvar v -> v.vty | Lmem e -> ( match e.ety with Tptr (t, _) -> t | t -> t)
  in
  List.fold_left
    (fun ty off ->
      match (off, ty) with Ofield f, _ -> f.fty | Oindex _, Tarray (t, _) -> t | Oindex _, t -> t)
    base offs

(* Strip pointer-to-pointer casts to find the expression a pointer
   value actually came from. *)
let rec strip_ptr_casts (e : exp) : exp =
  match e.e with Ecast (Tptr _, inner) when is_pointer inner.ety -> strip_ptr_casts inner | _ -> e

(* The externs that return a fresh chunk. Absint, Deputy's optimizer,
   refsafe and CCount all treat a call to one as a non-null allocation. *)
let allocators = [ "kmalloc"; "kzalloc"; "kmem_cache_alloc"; "vmalloc"; "alloc_pages" ]

let rec type_to_string = function
  | Tvoid -> "void"
  | Tint (Ast.Ichar, Ast.Unsigned) -> "char"
  | Tint (Ast.Ichar, Ast.Signed) -> "signed char"
  | Tint (Ast.Ishort, Ast.Signed) -> "short"
  | Tint (Ast.Ishort, Ast.Unsigned) -> "unsigned short"
  | Tint (Ast.Iint, Ast.Signed) -> "int"
  | Tint (Ast.Iint, Ast.Unsigned) -> "unsigned int"
  | Tint (Ast.Ilong, Ast.Signed) -> "long"
  | Tint (Ast.Ilong, Ast.Unsigned) -> "unsigned long"
  | Tptr (t, a) ->
      let annot_str =
        (if a.a_count <> None then " __count(_)" else "")
        ^ (if a.a_nullterm then " __nullterm" else "")
        ^ (if a.a_opt then " __opt" else "")
        ^ (if a.a_trusted then " __trusted" else "")
        ^ if a.a_user then " __user" else ""
      in
      type_to_string t ^ " *" ^ annot_str
  | Tarray (t, n) -> Printf.sprintf "%s[%d]" (type_to_string t) n
  | Tfun (ret, args) ->
      Printf.sprintf "%s(*)(%s)" (type_to_string ret)
        (String.concat ", " (List.map type_to_string args))
  | Tcomp tag -> "struct/union " ^ tag

(* Iterate over all statements of a block, recursing into nested
   blocks. [f] is applied to every statement. *)
let rec iter_stmts f (b : block) =
  let stmt s =
    f s;
    match s.sk with
    | Sinstr _ | Sbreak | Scontinue | Sreturn _ -> ()
    | Sif (_, b1, b2) ->
        iter_stmts f b1;
        iter_stmts f b2
    | Swhile (_, b1, b2) ->
        iter_stmts f b1;
        iter_stmts f b2
    | Sdowhile (b1, _) -> iter_stmts f b1
    | Sswitch (_, cases) -> List.iter (fun c -> iter_stmts f c.cbody) cases
    | Sblock b1 | Sdelayed b1 | Strusted b1 -> iter_stmts f b1
  in
  List.iter stmt b

(* Iterate over every instruction of a block. *)
let iter_instrs f b =
  iter_stmts (fun s -> match s.sk with Sinstr i -> f i | _ -> ()) b

(* [b] without the statements whose instruction is physically one of
   [removable] (the analyses drop proved checks and updates this way). *)
let rec remove_instrs removable (b : block) : block = List.filter_map (remove_stmt removable) b

and remove_stmt removable (s : stmt) : stmt option =
  let sub = remove_instrs removable in
  match s.sk with
  | Sinstr i when List.memq i removable -> None
  | Sinstr _ | Sbreak | Scontinue | Sreturn _ -> Some s
  | Sif (c, b1, b2) -> Some { s with sk = Sif (c, sub b1, sub b2) }
  | Swhile (c, body, step) -> Some { s with sk = Swhile (c, sub body, sub step) }
  | Sdowhile (body, c) -> Some { s with sk = Sdowhile (sub body, c) }
  | Sswitch (e, cases) ->
      Some { s with sk = Sswitch (e, List.map (fun c -> { c with cbody = sub c.cbody }) cases) }
  | Sblock b1 -> Some { s with sk = Sblock (sub b1) }
  | Sdelayed b1 -> Some { s with sk = Sdelayed (sub b1) }
  | Strusted b1 -> Some { s with sk = Strusted (sub b1) }

(* Iterate over all expressions appearing directly in an instruction. *)
let exps_of_instr = function
  | Iset (_, e) -> [ e ]
  | Icall (_, Direct _, args) -> args
  | Icall (_, Indirect f, args) -> f :: args
  | Icheck (ck, _) -> (
      match ck with
      | Ck_nonnull e -> [ e ]
      | Ck_le (a, b) | Ck_lt (a, b) -> [ a; b ]
      | Ck_nt_next (e, _) -> [ e ]
      | Ck_not_atomic -> [])
  | Irc_inc e | Irc_dec e -> [ e ]
  | Irc_update (_, e) -> [ e ]

let lval_of_instr = function
  | Iset (lv, _) -> Some lv
  | Icall (lv, _, _) -> lv
  | Icheck _ | Irc_inc _ | Irc_dec _ | Irc_update _ -> None

(* Fold over every sub-expression of an expression (prefix order). *)
let rec fold_exp f acc e =
  let acc = f acc e in
  match e.e with
  | Econst _ | Estr _ | Efun _ | Eself_field _ -> acc
  | Elval lv -> fold_lval f acc lv
  | Eunop (_, e1) | Ecast (_, e1) -> fold_exp f acc e1
  | Ebinop (_, e1, e2) -> fold_exp f (fold_exp f acc e1) e2
  | Econd (e1, e2, e3) -> fold_exp f (fold_exp f (fold_exp f acc e1) e2) e3
  | Eaddrof lv | Estartof lv -> fold_lval f acc lv

and fold_lval f acc (host, offs) =
  let acc = match host with Lvar _ -> acc | Lmem e -> fold_exp f acc e in
  List.fold_left
    (fun acc o -> match o with Ofield _ -> acc | Oindex e -> fold_exp f acc e)
    acc offs
