(* The tree-walking reference engine: a direct structural evaluator
   over the IR. This is the semantics every other engine must match
   instruction for instruction — the {!Compile}d engine is checked
   against it for identical traps, results and cycle counts (see
   test/test_vm_compile.ml). Kept deliberately simple; speed lives in
   {!Compile}. *)

module I = Kc.Ir
module S = Vmstate

type slot = Reg of int64 ref | Stack of int

type frame = {
  func : I.fundec;
  slots : (int, slot) Hashtbl.t; (* vid -> slot *)
  base : int; (* stack frame base address *)
}

let norm = S.norm
let is_signed = S.is_signed
let width_of = S.width_of

(* ------------------------------------------------------------------ *)
(* Lvalue resolution.                                                 *)
(* ------------------------------------------------------------------ *)

type place = Preg of int64 ref | Pmem of int (* address *)

let var_slot (t : S.t) (frame : frame option) (v : I.varinfo) : slot =
  if v.I.vglob then Stack (Hashtbl.find t.S.globals_addr v.I.vid)
  else
    match frame with
    | None -> Trap.trap Trap.Panic "local %s outside a frame" v.I.vname
    | Some f -> (
        match Hashtbl.find_opt f.slots v.I.vid with
        | Some s -> s
        | None -> Trap.trap Trap.Panic "unbound local %s" v.I.vname)

let rec place_of_lval (t : S.t) frame ((host, offs) : I.lval) : place * I.ty =
  let base_place, base_ty =
    match host with
    | I.Lvar v -> (
        match var_slot t frame v with
        | Reg r -> (Preg r, v.I.vty)
        | Stack addr -> (Pmem addr, v.I.vty))
    | I.Lmem e ->
        let p = eval_exp t frame e in
        let ty =
          match e.I.ety with
          | I.Tptr (ty, _) -> ty
          | _ -> Trap.trap Trap.Panic "deref of non-pointer"
        in
        (Pmem (Int64.to_int p), ty)
  in
  List.fold_left
    (fun (place, ty) off ->
      match (place, off, ty) with
      | Pmem addr, I.Ofield f, _ -> (Pmem (addr + Kc.Layout.field_offset t.S.prog f), f.I.fty)
      | Pmem addr, I.Oindex ie, I.Tarray (elt, _) ->
          let i = Int64.to_int (eval_exp t frame ie) in
          Cost.op_alu t.S.m.Machine.cost;
          (Pmem (addr + (i * Kc.Layout.size_of t.S.prog elt)), elt)
      | Preg _, _, _ -> Trap.trap Trap.Panic "offset into register slot"
      | Pmem _, I.Oindex _, _ -> Trap.trap Trap.Panic "index of non-array")
    (base_place, base_ty) offs

and addr_of_lval t frame lv : int =
  match place_of_lval t frame lv with
  | Pmem addr, _ -> addr
  | Preg _, _ -> Trap.trap Trap.Panic "address of register slot"

and read_lval (t : S.t) frame lv : int64 =
  let place, ty = place_of_lval t frame lv in
  match place with
  | Preg r -> !r
  | Pmem addr ->
      Cost.op_load t.S.m.Machine.cost;
      Mem.load t.S.m.Machine.mem ~addr ~width:(width_of t.S.prog ty) ~signed:(is_signed ty)

and write_lval (t : S.t) frame lv (v : int64) : unit =
  let place, ty = place_of_lval t frame lv in
  match place with
  | Preg r -> r := norm ty v
  | Pmem addr ->
      Cost.op_store t.S.m.Machine.cost;
      Mem.store t.S.m.Machine.mem ~addr ~width:(width_of t.S.prog ty) v

(* ------------------------------------------------------------------ *)
(* Expression evaluation.                                             *)
(* ------------------------------------------------------------------ *)

and eval_exp (t : S.t) frame (e : I.exp) : int64 =
  match e.I.e with
  | I.Econst n -> n
  | I.Estr s -> Int64.of_int (S.intern_string t s)
  | I.Efun name -> (
      match I.find_fun t.S.prog name with
      | Some fd -> S.fptr_encode fd.I.fid
      | None -> Trap.trap Trap.Unknown_function "reference to unknown function %s" name)
  | I.Elval lv -> read_lval t frame lv
  | I.Eunop (op, e1) -> (
      let v = eval_exp t frame e1 in
      Cost.op_alu t.S.m.Machine.cost;
      match op with
      | Kc.Ast.Neg -> norm e.I.ety (Int64.neg v)
      | Kc.Ast.Bitnot -> norm e.I.ety (Int64.lognot v)
      | Kc.Ast.Lognot -> if v = 0L then 1L else 0L)
  | I.Ebinop (op, a, b) -> eval_binop t frame e.I.ety op a b
  | I.Econd (c, a, b) ->
      let cv = eval_exp t frame c in
      Cost.op_branch t.S.m.Machine.cost;
      if cv <> 0L then eval_exp t frame a else eval_exp t frame b
  | I.Ecast (ty, e1) -> norm ty (eval_exp t frame e1)
  | I.Eaddrof lv -> Int64.of_int (addr_of_lval t frame lv)
  | I.Estartof lv -> Int64.of_int (addr_of_lval t frame lv)
  | I.Eself_field _ ->
      Trap.trap Trap.Panic "Eself_field reached the interpreter (uninstantiated annotation)"

and eval_binop (t : S.t) frame (rty : I.ty) op (ea : I.exp) (eb : I.exp) : int64 =
  let a = eval_exp t frame ea in
  let b = eval_exp t frame eb in
  Cost.op_alu t.S.m.Machine.cost;
  let open Int64 in
  let bool_ v = if v then 1L else 0L in
  match (op, ea.I.ety, eb.I.ety) with
  (* Pointer arithmetic scales by element size. *)
  | Kc.Ast.Add, I.Tptr (elt, _), _ ->
      add a (mul b (of_int (Kc.Layout.size_of t.S.prog elt)))
  | Kc.Ast.Sub, I.Tptr (elt, _), I.Tint _ ->
      sub a (mul b (of_int (Kc.Layout.size_of t.S.prog elt)))
  | Kc.Ast.Sub, I.Tptr (elt, _), I.Tptr _ ->
      div (sub a b) (of_int (Stdlib.max 1 (Kc.Layout.size_of t.S.prog elt)))
  | _ -> (
      let signed = is_signed ea.I.ety in
      match op with
      | Kc.Ast.Add -> norm rty (add a b)
      | Kc.Ast.Sub -> norm rty (sub a b)
      | Kc.Ast.Mul -> norm rty (mul a b)
      | Kc.Ast.Div ->
          if b = 0L then Trap.trap Trap.Div_by_zero "division by zero";
          norm rty (if signed then div a b else unsigned_div a b)
      | Kc.Ast.Mod ->
          if b = 0L then Trap.trap Trap.Div_by_zero "mod by zero";
          norm rty (if signed then rem a b else unsigned_rem a b)
      | Kc.Ast.Shl -> norm rty (shift_left a (to_int (logand b 63L)))
      | Kc.Ast.Shr ->
          let amt = to_int (logand b 63L) in
          norm rty (if signed then shift_right a amt else shift_right_logical a amt)
      | Kc.Ast.Bitand -> norm rty (logand a b)
      | Kc.Ast.Bitor -> norm rty (logor a b)
      | Kc.Ast.Bitxor -> norm rty (logxor a b)
      | Kc.Ast.Lt -> bool_ (if signed then a < b else unsigned_compare a b < 0)
      | Kc.Ast.Gt -> bool_ (if signed then a > b else unsigned_compare a b > 0)
      | Kc.Ast.Le -> bool_ (if signed then a <= b else unsigned_compare a b <= 0)
      | Kc.Ast.Ge -> bool_ (if signed then a >= b else unsigned_compare a b >= 0)
      | Kc.Ast.Eq -> bool_ (a = b)
      | Kc.Ast.Ne -> bool_ (a <> b)
      | Kc.Ast.Logand -> bool_ (a <> 0L && b <> 0L)
      | Kc.Ast.Logor -> bool_ (a <> 0L || b <> 0L))

(* ------------------------------------------------------------------ *)
(* Statements.                                                        *)
(* ------------------------------------------------------------------ *)

and exec_check (t : S.t) frame (ck : I.check) (reason : string) : unit =
  let cost = t.S.m.Machine.cost in
  match ck with
  | I.Ck_nonnull e ->
      Cost.op_check cost;
      if eval_exp t frame e = 0L then Trap.trap Trap.Check_failed "null pointer: %s" reason
  | I.Ck_le (a, b) ->
      Cost.op_check cost;
      let x = eval_exp t frame a in
      let y = eval_exp t frame b in
      if x > y then Trap.trap Trap.Check_failed "%s (%Ld > %Ld)" reason x y
  | I.Ck_lt (a, b) ->
      Cost.op_check cost;
      let x = eval_exp t frame a in
      let y = eval_exp t frame b in
      if x >= y then Trap.trap Trap.Check_failed "%s (%Ld >= %Ld)" reason x y
  | I.Ck_nt_next (e, width) ->
      Cost.op_nt_check cost;
      let p = Int64.to_int (eval_exp t frame e) in
      let v = Mem.load t.S.m.Machine.mem ~addr:p ~width ~signed:false in
      if v = 0L then Trap.trap Trap.Check_failed "nullterm advance past terminator: %s" reason
  | I.Ck_not_atomic ->
      Cost.op_check cost;
      if Machine.atomic_context t.S.m then
        Trap.trap Trap.Not_atomic_check "assertion: not in atomic context (%s)" reason

and exec_instr (t : S.t) frame (instr : I.instr) : unit =
  Machine.burn_fuel t.S.m;
  match instr with
  | I.Iset (lv, e) -> (
      let ty = S.lval_type lv in
      match ty with
      | I.Tcomp _ -> (
          (* Struct assignment: block copy between lvalues. *)
          match e.I.e with
          | I.Elval src_lv ->
              let dst = addr_of_lval t frame lv in
              let src = addr_of_lval t frame src_lv in
              let size = Kc.Layout.size_of t.S.prog ty in
              Cost.charge t.S.m.Machine.cost (size / 4);
              Mem.blit_copy t.S.m.Machine.mem ~src ~dst size
          | _ -> Trap.trap Trap.Panic "struct assignment from non-lvalue")
      | _ ->
          let v = eval_exp t frame e in
          write_lval t frame lv v)
  | I.Icall (ret, target, args) -> (
      let argv = List.map (eval_exp t frame) args in
      Cost.op_call t.S.m.Machine.cost;
      let result =
        match target with
        | I.Direct name -> call_by_name t name argv
        | I.Indirect fe -> (
            let fv = eval_exp t frame fe in
            match S.fptr_decode fv with
            | Some fid -> (
                match Hashtbl.find_opt t.S.fun_of_id fid with
                | Some fd -> call_function t fd argv
                | None -> Trap.trap Trap.Unknown_function "bad function pointer %Ld" fv)
            | None ->
                Trap.trap Trap.Unknown_function "call through non-function value %Ld" fv)
      in
      match ret with
      | None -> ()
      | Some lv -> write_lval t frame lv result)
  | I.Icheck (ck, reason) -> exec_check t frame ck reason
  | I.Irc_inc e ->
      let v = eval_exp t frame e in
      if v <> 0L then begin
        Mem.rc_inc t.S.m.Machine.mem v;
        Cost.op_rc t.S.m.Machine.cost
      end
  | I.Irc_dec e ->
      let v = eval_exp t frame e in
      if v <> 0L then begin
        Mem.rc_dec t.S.m.Machine.mem v;
        Cost.op_rc t.S.m.Machine.cost
      end
  | I.Irc_update (lv, e) -> (
      (* RC(new)++ then RC(old)--, unless the slot is a stack local
         (untracked, paper footnote 2). Increment-before-decrement
         avoids transitory zero counts. *)
      match place_of_lval t frame lv with
      | Preg _, _ -> ()
      | Pmem addr, _ ->
          if not (addr >= Mem.stack_base && addr < Mem.stack_base + Mem.stack_size) then begin
            let new_target = eval_exp t frame e in
            if new_target <> 0L then begin
              Mem.rc_inc t.S.m.Machine.mem new_target;
              Cost.op_rc t.S.m.Machine.cost
            end;
            let old = Mem.load t.S.m.Machine.mem ~addr ~width:8 ~signed:false in
            if old <> 0L then begin
              Mem.rc_dec t.S.m.Machine.mem old;
              Cost.op_rc t.S.m.Machine.cost
            end
          end)

and exec_block t frame (b : I.block) : [ `Normal | `Break | `Continue | `Return of int64 ] =
  match b with
  | [] -> `Normal
  | s :: rest -> (
      match exec_stmt t frame s with
      | `Normal -> exec_block t frame rest
      | (`Break | `Continue | `Return _) as sig_ -> sig_)

and exec_stmt (t : S.t) frame (s : I.stmt) : [ `Normal | `Break | `Continue | `Return of int64 ] =
  match s.I.sk with
  | I.Sinstr i ->
      exec_instr t frame i;
      `Normal
  | I.Sif (c, b1, b2) ->
      Cost.op_branch t.S.m.Machine.cost;
      if eval_exp t frame c <> 0L then exec_block t frame b1 else exec_block t frame b2
  | I.Swhile (c, body, step) ->
      let rec loop () =
        Machine.burn_fuel t.S.m;
        Cost.op_branch t.S.m.Machine.cost;
        if eval_exp t frame c = 0L then `Normal
        else
          match exec_block t frame body with
          | `Break -> `Normal
          | `Return v -> `Return v
          | `Normal | `Continue -> (
              match exec_block t frame step with
              | `Return v -> `Return v
              | `Break -> `Normal
              | `Normal | `Continue -> loop ())
      in
      loop ()
  | I.Sdowhile (body, c) ->
      let rec loop () =
        Machine.burn_fuel t.S.m;
        match exec_block t frame body with
        | `Break -> `Normal
        | `Return v -> `Return v
        | `Normal | `Continue ->
            Cost.op_branch t.S.m.Machine.cost;
            if eval_exp t frame c <> 0L then loop () else `Normal
      in
      loop ()
  | I.Sswitch (e, cases) -> (
      let v = eval_exp t frame e in
      Cost.op_branch t.S.m.Machine.cost;
      let rec find i = function
        | [] -> None
        | (c : I.case) :: rest -> if List.mem v c.I.cvals then Some i else find (i + 1) rest
      in
      let start =
        match find 0 cases with
        | Some i -> Some i
        | None -> (
            let rec find_default i = function
              | [] -> None
              | (c : I.case) :: rest -> if c.I.cdefault then Some i else find_default (i + 1) rest
            in
            find_default 0 cases)
      in
      match start with
      | None -> `Normal
      | Some i ->
          (* C fallthrough: run case bodies from [i] until break. *)
          let rec run cases =
            match cases with
            | [] -> `Normal
            | (c : I.case) :: rest -> (
                match exec_block t frame c.I.cbody with
                | `Break -> `Normal
                | `Return v -> `Return v
                | `Continue -> `Continue
                | `Normal -> run rest)
          in
          run (List.filteri (fun j _ -> j >= i) cases))
  | I.Sbreak -> `Break
  | I.Scontinue -> `Continue
  | I.Sreturn None -> `Return 0L
  | I.Sreturn (Some e) -> `Return (eval_exp t frame e)
  | I.Sblock b -> exec_block t frame b
  | I.Sdelayed b -> (
      Machine.delayed_scope_enter t.S.m;
      match exec_block t frame b with
      | `Normal ->
          Machine.delayed_scope_exit t.S.m ~where:(Kc.Loc.to_string s.I.sloc);
          `Normal
      | other ->
          Machine.delayed_scope_exit t.S.m ~where:(Kc.Loc.to_string s.I.sloc);
          other)
  | I.Strusted b -> exec_block t frame b

(* ------------------------------------------------------------------ *)
(* Calls.                                                             *)
(* ------------------------------------------------------------------ *)

and call_by_name (t : S.t) name argv : int64 =
  match I.find_fun t.S.prog name with
  | Some fd when not fd.I.fextern -> call_function t fd argv
  | _ -> (
      match Hashtbl.find_opt t.S.builtins name with
      | Some impl -> impl t argv
      | None -> Trap.trap Trap.Unknown_function "call to undefined function %s" name)

and call_function (t : S.t) (fd : I.fundec) argv : int64 =
  if fd.I.fextern then call_by_name t fd.I.fname argv
  else begin
    t.S.call_depth <- t.S.call_depth + 1;
    if t.S.call_depth > 2000 then
      Trap.trap Trap.Stack_overflow_trap "call depth > 2000 in %s" fd.I.fname;
    if t.S.call_depth > t.S.max_call_depth then t.S.max_call_depth <- t.S.call_depth;
    (* Lay out the frame: memory-resident locals get stack slots. *)
    let layout, frame_bytes = Kc.Layout.frame t.S.prog fd in
    let base = Machine.push_frame t.S.m (max 16 frame_bytes) in
    let slots = Hashtbl.create 16 in
    List.iter
      (fun ((v : I.varinfo), off) ->
        Hashtbl.replace slots v.I.vid
          (match off with Some o -> Stack (base + o) | None -> Reg (ref 0L)))
      layout;
    let frame = { func = fd; slots; base } in
    (* Bind arguments (missing args of variadic-tolerant stubs are 0). *)
    List.iteri
      (fun i (v : I.varinfo) ->
        let value = match List.nth_opt argv i with Some x -> x | None -> 0L in
        match Hashtbl.find slots v.I.vid with
        | Reg r -> r := norm v.I.vty value
        | Stack addr -> Mem.store t.S.m.Machine.mem ~addr ~width:(width_of t.S.prog v.I.vty) value)
      fd.I.sformals;
    let result = match exec_block t (Some frame) fd.I.fbody with `Return v -> v | _ -> 0L in
    Machine.pop_frame t.S.m base;
    t.S.call_depth <- t.S.call_depth - 1;
    norm fd.I.fret result
  end

(* Run a defined function by name. *)
let run (t : S.t) name (argv : int64 list) : int64 =
  match I.find_fun t.S.prog name with
  | Some fd when not fd.I.fextern -> call_function t fd argv
  | Some _ -> Trap.trap Trap.Unknown_function "%s is extern, cannot run" name
  | None -> Trap.trap Trap.Unknown_function "no function %s" name
