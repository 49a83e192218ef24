(* Shared interpreter state: everything both execution engines (the
   {!Treewalk} reference evaluator and the {!Compile}d one) need —
   global placement, string interning, function-pointer encoding,
   value normalization, the builtin table, and the call-depth
   accounting. Engines are installed via the [run_fn] hook so the
   {!Interp} facade can dispatch without a dependency cycle. *)

module I = Kc.Ir

type t = {
  prog : I.program;
  m : Machine.t;
  globals_addr : (int, int) Hashtbl.t; (* global vid -> address *)
  strings : (string, int) Hashtbl.t;
  mutable rodata_brk : int;
  mutable static_brk : int;
  mutable call_depth : int;
  mutable max_call_depth : int;
  builtins : (string, t -> int64 list -> int64) Hashtbl.t;
  fun_of_id : (int, I.fundec) Hashtbl.t;
  mutable run_fn : (t -> I.fundec -> int64 list -> int64) option;
      (* engine hook: [None] = tree-walk reference engine *)
  mutable scratch : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t list;
      (* compiled-engine register-file pool: machines are
         single-threaded, so frames returning in LIFO order can hand
         their register files to the next call instead of mallocing a
         bigarray per activation *)
}

let fptr_encode fid = Int64.of_int (-(fid + 16))

let fptr_decode (v : int64) : int option =
  let n = Int64.to_int v in
  if n <= -16 then Some (-n - 16) else None

(* ------------------------------------------------------------------ *)
(* Value normalization.                                               *)
(* ------------------------------------------------------------------ *)

let norm (ty : I.ty) (v : int64) : int64 =
  match ty with
  | I.Tint (k, s) ->
      let w = Kc.Layout.int_size k in
      if w = 8 then v
      else
        let shift = 64 - (8 * w) in
        let shifted = Int64.shift_left v shift in
        if s = Kc.Ast.Signed then Int64.shift_right shifted shift
        else Int64.shift_right_logical shifted shift
  | _ -> v

let is_signed = function I.Tint (_, Kc.Ast.Signed) -> true | _ -> false

let width_of prog (ty : I.ty) : int =
  match ty with
  | I.Tint (k, _) -> Kc.Layout.int_size k
  | I.Tptr _ -> 8
  | _ -> Kc.Layout.size_of prog ty

(* ------------------------------------------------------------------ *)
(* Setup: globals, strings, function ids.                             *)
(* ------------------------------------------------------------------ *)

(* The type of an lvalue, as {!Kc.Ir.lval_type}, but a deref of a
   non-pointer or an index of a non-array traps: both engines run only
   well-typed IR. *)
let lval_type ((host, offs) : I.lval) : I.ty =
  let base =
    match host with
    | I.Lvar v -> v.I.vty
    | I.Lmem e -> (
        match e.I.ety with
        | I.Tptr (ty, _) -> ty
        | _ -> Trap.trap Trap.Panic "deref of non-pointer in lval")
  in
  List.fold_left
    (fun ty off ->
      match (off, ty) with
      | I.Ofield f, _ -> f.I.fty
      | I.Oindex _, I.Tarray (elt, _) -> elt
      | I.Oindex _, _ -> Trap.trap Trap.Panic "index of non-array in lval")
    base offs

let intern_string t s : int =
  match Hashtbl.find_opt t.strings s with
  | Some addr -> addr
  | None ->
      let len = String.length s + 1 in
      let addr = t.rodata_brk in
      if addr + len > Mem.rodata_base + Mem.rodata_size then
        Trap.trap Trap.Panic "rodata exhausted";
      t.rodata_brk <- addr + len;
      Mem.set_valid t.m.Machine.mem addr len true;
      Mem.blit_string t.m.Machine.mem addr s;
      Hashtbl.replace t.strings s addr;
      addr

(* Deterministic global placement: a pure function of the program, so
   the compiled engine can bake global addresses at compile time and
   every machine instance running the same program agrees with it.
   Returns the vid -> address table and the final static break. *)
let global_layout (prog : I.program) : (int, int) Hashtbl.t * int =
  let tbl = Hashtbl.create 64 in
  let brk = ref Mem.static_base in
  List.iter
    (fun ((v : I.varinfo), _) ->
      let size = Kc.Layout.size_of prog v.I.vty in
      let align = Kc.Layout.align_of prog v.I.vty in
      let addr = (!brk + align - 1) / align * align in
      if addr + size > Mem.static_base + Mem.static_size then
        Trap.trap Trap.Panic "static region exhausted";
      brk := addr + size;
      Hashtbl.replace tbl v.I.vid addr)
    prog.I.globals;
  (tbl, !brk)

(* Evaluate a constant initializer expression (no locals in scope). *)
let rec eval_const_exp t (e : I.exp) : int64 =
  match e.I.e with
  | I.Econst n -> n
  | I.Estr s -> Int64.of_int (intern_string t s)
  | I.Efun name -> (
      match I.find_fun t.prog name with
      | Some fd -> fptr_encode fd.I.fid
      | None -> Trap.trap Trap.Unknown_function "initializer references unknown %s" name)
  | I.Ecast (ty, e1) -> norm ty (eval_const_exp t e1)
  | I.Eunop (Kc.Ast.Neg, e1) -> norm e.I.ety (Int64.neg (eval_const_exp t e1))
  | I.Ebinop (op, a, b) -> (
      let x = eval_const_exp t a in
      let y = eval_const_exp t b in
      let open Int64 in
      match op with
      | Kc.Ast.Add -> norm e.I.ety (add x y)
      | Kc.Ast.Sub -> norm e.I.ety (sub x y)
      | Kc.Ast.Mul -> norm e.I.ety (mul x y)
      | Kc.Ast.Shl -> norm e.I.ety (shift_left x (to_int y))
      | Kc.Ast.Bitor -> logor x y
      | _ -> Trap.trap Trap.Panic "unsupported constant initializer operation")
  | I.Elval (I.Lvar v, []) when v.I.vglob ->
      (* Address-valued global constants are not supported; value
         reads from globals in initializers are rejected. *)
      Trap.trap Trap.Panic "initializer reads global %s" v.I.vname
  | I.Eaddrof (I.Lvar v, []) when v.I.vglob -> (
      match Hashtbl.find_opt t.globals_addr v.I.vid with
      | Some a -> Int64.of_int a
      | None -> Trap.trap Trap.Panic "initializer takes address of unplaced global %s" v.I.vname)
  | I.Estartof (I.Lvar v, []) when v.I.vglob -> (
      match Hashtbl.find_opt t.globals_addr v.I.vid with
      | Some a -> Int64.of_int a
      | None -> Trap.trap Trap.Panic "initializer decays unplaced global %s" v.I.vname)
  | _ -> Trap.trap Trap.Panic "unsupported global initializer expression"

let rec store_ginit t addr (ty : I.ty) (gi : I.ginit) : unit =
  match (gi, ty) with
  | I.Gi_exp e, _ ->
      let v = eval_const_exp t e in
      Mem.store t.m.Machine.mem ~addr ~width:(width_of t.prog ty) v
  | I.Gi_list items, I.Tarray (elt, _) ->
      let esz = Kc.Layout.size_of t.prog elt in
      List.iteri (fun i item -> store_ginit t (addr + (i * esz)) elt item) items
  | I.Gi_list items, I.Tcomp tag ->
      let c = I.comp_find t.prog tag in
      List.iteri
        (fun i item ->
          let f = List.nth c.I.cfields i in
          let off = Kc.Layout.field_offset t.prog f in
          store_ginit t (addr + off) f.I.fty item)
        items
  | I.Gi_list _, _ -> Trap.trap Trap.Panic "brace initializer for scalar"

let create (prog : I.program) (m : Machine.t) : t =
  let t =
    {
      prog;
      m;
      globals_addr = Hashtbl.create 64;
      strings = Hashtbl.create 64;
      rodata_brk = Mem.rodata_base;
      static_brk = Mem.static_base;
      call_depth = 0;
      max_call_depth = 0;
      builtins = Hashtbl.create 64;
      fun_of_id = Hashtbl.create 64;
      run_fn = None;
      scratch = [];
    }
  in
  List.iter (fun (fd : I.fundec) -> Hashtbl.replace t.fun_of_id fd.I.fid fd) prog.I.funcs;
  (* Place globals. *)
  let layout, brk = global_layout prog in
  List.iter
    (fun ((v : I.varinfo), _) ->
      let addr = Hashtbl.find layout v.I.vid in
      Mem.set_valid m.Machine.mem addr (Kc.Layout.size_of prog v.I.vty) true;
      Hashtbl.replace t.globals_addr v.I.vid addr)
    prog.I.globals;
  t.static_brk <- brk;
  (* Initialize them (addresses all known, so &other_global works). *)
  List.iter
    (fun ((v : I.varinfo), init) ->
      match init with
      | None -> ()
      | Some gi ->
          let addr = Hashtbl.find t.globals_addr v.I.vid in
          store_ginit t addr v.I.vty gi)
    prog.I.globals;
  t

(* Read a null-terminated string out of VM memory. *)
let read_string t (addr : int64) : string =
  let buf = Buffer.create 16 in
  let rec go a =
    let c = Mem.load t.m.Machine.mem ~addr:a ~width:1 ~signed:false in
    if c <> 0L then begin
      Buffer.add_char buf (Char.chr (Int64.to_int c));
      go (a + 1)
    end
  in
  go (Int64.to_int addr);
  Buffer.contents buf

let register_builtin t name impl = Hashtbl.replace t.builtins name impl
