(* User/kernel pointer checking (paper §3.1: "Further examples include
   user/kernel pointers, tainted data flow...").

   A [__user] pointer addresses user space. Two rules, in the style of
   sparse's address-space checking but sound over the typed IR:

   1. a __user pointer must never be dereferenced directly — only the
      copy helpers (copy_to_user / copy_from_user) may touch user
      memory;
   2. user-ness must not be laundered: a __user value cannot flow into
      a kernel-pointer slot or argument, nor a kernel pointer into a
      __user one, except inside [__trusted] regions (the syscall entry
      shim that blesses raw register values is exactly such a region).

   Null constants are exempt (null is valid in both spaces). *)

module I = Kc.Ir

type kind =
  | Deref (* direct dereference of a __user pointer *)
  | User_to_kernel (* __user value into a kernel slot/argument *)
  | Kernel_to_user (* kernel value into a __user slot/argument *)

type violation = { v_fn : string; v_loc : Kc.Loc.t; v_kind : kind; v_what : string }

type report = {
  violations : violation list;
  user_params : int; (* __user-annotated parameters seen *)
  derefs_checked : int;
  flows_checked : int;
}

let is_user_ty (ty : I.ty) : bool =
  match ty with I.Tptr (_, a) -> a.I.a_user | _ -> false

(* User-ness of a value, looking through pointer casts to its origin
   (a cast must not launder the address space). *)
let is_user_exp (e : I.exp) : bool = is_user_ty (I.strip_ptr_casts e).I.ety

let is_null (e : I.exp) : bool = Deputy.Annot.const_fold e = Some 0L

type ctx = {
  prog : I.program;
  fd : I.fundec;
  mutable trusted : bool;
  mutable violations : violation list;
  mutable derefs : int;
  mutable flows : int;
}

let violate ctx loc kind what =
  ctx.violations <- { v_fn = ctx.fd.I.fname; v_loc = loc; v_kind = kind; v_what = what } :: ctx.violations

(* Rule 1: no derefs of __user pointers outside trusted code. *)
let check_deref ctx loc (e : I.exp) =
  I.fold_exp
    (fun () sub ->
      match sub.I.e with
      | I.Elval (I.Lmem p, _) ->
          ctx.derefs <- ctx.derefs + 1;
          let base, _ = Deputy.Annot.split_base p in
          if is_user_exp base && not ctx.trusted then
            violate ctx loc Deref (Kc.Pretty.exp_to_string base)
      | _ -> ())
    () e

let check_lval_deref ctx loc ((host, offs) : I.lval) =
  (match host with
  | I.Lmem p ->
      ctx.derefs <- ctx.derefs + 1;
      let base, _ = Deputy.Annot.split_base p in
      if is_user_exp base && not ctx.trusted then
        violate ctx loc Deref (Kc.Pretty.exp_to_string base)
  | I.Lvar _ -> ());
  List.iter
    (function I.Oindex ie -> check_deref ctx loc ie | I.Ofield _ -> ())
    offs

(* Rule 2: address spaces must agree across a flow. *)
let check_flow ctx loc ~(dst_user : bool) (src : I.exp) ~what =
  if I.is_pointer src.I.ety && not (is_null src) then begin
    ctx.flows <- ctx.flows + 1;
    if not ctx.trusted then begin
      let src_user = is_user_exp src in
      if src_user && not dst_user then violate ctx loc User_to_kernel what
      else if (not src_user) && dst_user then violate ctx loc Kernel_to_user what
    end
  end

let check_instr ctx loc (instr : I.instr) =
  match instr with
  | I.Iset (lv, e) ->
      check_lval_deref ctx loc lv;
      check_deref ctx loc e;
      check_flow ctx loc ~dst_user:(is_user_ty (I.lval_type lv)) e
        ~what:(Kc.Pretty.lval_to_string lv)
  | I.Icall (ret, target, args) -> (
      List.iter (check_deref ctx loc) args;
      (match ret with Some lv -> check_lval_deref ctx loc lv | None -> ());
      match target with
      | I.Direct callee -> (
          match I.find_fun ctx.prog callee with
          | Some fd ->
              List.iteri
                (fun i (formal : I.varinfo) ->
                  match List.nth_opt args i with
                  | Some arg ->
                      check_flow ctx loc ~dst_user:(is_user_ty formal.I.vty) arg
                        ~what:(Printf.sprintf "argument %d of %s" (i + 1) callee)
                  | None -> ())
                fd.I.sformals
          | None -> ())
      | I.Indirect fe -> check_deref ctx loc fe)
  | I.Icheck _ | I.Irc_inc _ | I.Irc_dec _ | I.Irc_update _ -> ()

let rec check_block ctx (b : I.block) = List.iter (check_stmt ctx) b

and check_stmt ctx (s : I.stmt) =
  let loc = s.I.sloc in
  match s.I.sk with
  | I.Sinstr i -> check_instr ctx loc i
  | I.Sif (c, b1, b2) ->
      check_deref ctx loc c;
      check_block ctx b1;
      check_block ctx b2
  | I.Swhile (c, body, step) ->
      check_deref ctx loc c;
      check_block ctx body;
      check_block ctx step
  | I.Sdowhile (body, c) ->
      check_block ctx body;
      check_deref ctx loc c
  | I.Sswitch (e, cases) ->
      check_deref ctx loc e;
      List.iter (fun (c : I.case) -> check_block ctx c.I.cbody) cases
  | I.Sreturn (Some e) ->
      check_deref ctx loc e;
      check_flow ctx loc ~dst_user:(is_user_ty ctx.fd.I.fret) e ~what:"return value"
  | I.Sreturn None | I.Sbreak | I.Scontinue -> ()
  | I.Sblock b | I.Sdelayed b -> check_block ctx b
  | I.Strusted b ->
      let was = ctx.trusted in
      ctx.trusted <- true;
      check_block ctx b;
      ctx.trusted <- was

let analyze (prog : I.program) : report =
  let violations = ref [] and derefs = ref 0 and flows = ref 0 in
  let user_params = ref 0 in
  (* Name order, not Hashtbl order: report code must stay byte-stable
     across insertion histories and OCaml versions. *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) prog.I.fun_by_name []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (_, (fd : I.fundec)) ->
         List.iter
           (fun (v : I.varinfo) -> if is_user_ty v.I.vty then incr user_params)
           fd.I.sformals);
  List.iter
    (fun (fd : I.fundec) ->
      let ctx =
        {
          prog;
          fd;
          trusted = List.mem Kc.Ast.Ftrusted fd.I.fannots;
          violations = [];
          derefs = 0;
          flows = 0;
        }
      in
      check_block ctx fd.I.fbody;
      violations := ctx.violations @ !violations;
      derefs := !derefs + ctx.derefs;
      flows := !flows + ctx.flows)
    prog.I.funcs;
  {
    violations = List.rev !violations;
    user_params = !user_params;
    derefs_checked = !derefs;
    flows_checked = !flows;
  }

let kind_to_string = function
  | Deref -> "dereference of __user pointer"
  | User_to_kernel -> "__user pointer flows into kernel slot"
  | Kernel_to_user -> "kernel pointer flows into __user slot"
