(* Deputy check generation.

   Walks every function body and inserts runtime checks ({!Kc.Ir.Icheck})
   in front of the instructions that need them:

   - array indexing ([a\[i\]] on a sized array): 0 <= i < size;
   - pointer dereference: bounds against the pointer's classification
     ([Safe] = one element, [Counted c], [Nullterm c]);
   - dereference of [__opt] pointers: non-null check (non-opt pointers
     are non-null by type invariant, as in Deputy);
   - assignments and call arguments between differently-annotated
     pointer types: the source must provide at least the destination's
     declared element count;
   - advancing a nullterm pointer ([s = s + 1]): the element being
     stepped over must not be the terminator.

   Code inside [__trusted] blocks or functions is not instrumented;
   every skipped operation is counted, giving the paper's "trusted
   code" census. Definite violations found at instrumentation time
   (e.g. constant out-of-bounds indices) are recorded as static
   errors and also compiled to failing checks. *)

module I = Kc.Ir

type stats = {
  mutable derefs_seen : int;
  mutable checks_nonnull : int;
  mutable checks_lower : int;
  mutable checks_upper : int;
  mutable checks_nt : int;
  mutable checks_count_flow : int; (* count-compatibility at assignments/calls *)
  mutable blessed_casts : int; (* allocator void-pointer results blessing a count *)
  mutable trusted_ops : int;
  mutable unresolved_ops : int; (* dependent count not instantiable here *)
  mutable static_errors : (string * Kc.Loc.t) list;
  mutable functions_instrumented : int;
}

let new_stats () =
  {
    derefs_seen = 0;
    checks_nonnull = 0;
    checks_lower = 0;
    checks_upper = 0;
    checks_nt = 0;
    checks_count_flow = 0;
    blessed_casts = 0;
    trusted_ops = 0;
    unresolved_ops = 0;
    static_errors = [];
    functions_instrumented = 0;
  }

let total_checks s =
  s.checks_nonnull + s.checks_lower + s.checks_upper + s.checks_nt + s.checks_count_flow

type ctx = {
  prog : I.program;
  stats : stats;
  fd : I.fundec;
  mutable trusted : bool; (* inside a __trusted region *)
  loc : Kc.Loc.t ref;
}

let mk_check ctx ck reason : I.stmt = { I.sk = I.Sinstr (I.Icheck (ck, reason)); sloc = !(ctx.loc) }

(* Try to instantiate a count expression at a use of [ptr_exp]. A
   count mentioning sibling fields needs the struct base, which we
   recover syntactically when the pointer is read straight out of a
   struct field. *)
let instantiate_count ctx (count : I.exp) (ptr_exp : I.exp) : I.exp option =
  if not (Annot.mentions_self count) then Some count
  else
    match ptr_exp.I.e with
    | I.Elval (host, offs) when offs <> [] -> (
        match List.rev offs with
        | I.Ofield _ :: rev_base -> Some (Annot.subst_self (host, List.rev rev_base) count)
        | _ ->
            ctx.stats.unresolved_ops <- ctx.stats.unresolved_ops + 1;
            None)
    | _ ->
        ctx.stats.unresolved_ops <- ctx.stats.unresolved_ops + 1;
        None

(* The available element count of a pointer-typed expression, as an
   expression valid at the use site. [None] means "do not check"
   (trusted or not instantiable). *)
let actual_count ctx (e : I.exp) : I.exp option =
  match Annot.classify_ty e.I.ety with
  | None -> None
  | Some Annot.Trusted ->
      ctx.stats.trusted_ops <- ctx.stats.trusted_ops + 1;
      None
  | Some Annot.Safe -> Some I.one
  | Some (Annot.Counted c) | Some (Annot.Nullterm c) -> instantiate_count ctx c e

(* ------------------------------------------------------------------ *)
(* Checks for reads/writes through memory.                            *)
(* ------------------------------------------------------------------ *)

let bounds_checks ctx ~(is_write : bool) (p : I.exp) : I.stmt list =
  ctx.stats.derefs_seen <- ctx.stats.derefs_seen + 1;
  if ctx.trusted then begin
    ctx.stats.trusted_ops <- ctx.stats.trusted_ops + 1;
    []
  end
  else begin
    let base, idx = Annot.split_base p in
    let checks = ref [] in
    let add ck reason = checks := mk_check ctx ck reason :: !checks in
    (* Null check only for __opt pointers; others are non-null by
       invariant. *)
    (match base.I.ety with
    | I.Tptr (_, a) when a.I.a_opt ->
        ctx.stats.checks_nonnull <- ctx.stats.checks_nonnull + 1;
        add (I.Ck_nonnull base) "deref of __opt pointer"
    | _ -> ());
    let idx_const = Annot.const_fold idx in
    (match Annot.classify_ty base.I.ety with
    | None | Some Annot.Trusted ->
        if Annot.classify_ty base.I.ety = Some Annot.Trusted then
          ctx.stats.trusted_ops <- ctx.stats.trusted_ops + 1
    | Some Annot.Safe -> (
        match idx_const with
        | Some 0L -> ()
        | Some n ->
            ctx.stats.static_errors <-
              (Printf.sprintf "index %Ld on a one-element pointer" n, !(ctx.loc))
              :: ctx.stats.static_errors;
            ctx.stats.checks_upper <- ctx.stats.checks_upper + 1;
            add (I.Ck_lt (idx, I.one)) "index on safe pointer"
        | None ->
            ctx.stats.checks_lower <- ctx.stats.checks_lower + 1;
            add (I.Ck_le (I.zero, idx)) "safe pointer lower bound";
            ctx.stats.checks_upper <- ctx.stats.checks_upper + 1;
            add (I.Ck_lt (idx, I.one)) "safe pointer upper bound")
    | Some (Annot.Counted c) -> (
        match instantiate_count ctx c base with
        | None -> ()
        | Some count -> (
            let count_const = Annot.const_fold count in
            match (idx_const, count_const) with
            | Some i, Some n when i >= 0L && i < n -> () (* statically fine *)
            | Some i, Some n ->
                ctx.stats.static_errors <-
                  (Printf.sprintf "index %Ld out of bounds of %Ld" i n, !(ctx.loc))
                  :: ctx.stats.static_errors;
                ctx.stats.checks_upper <- ctx.stats.checks_upper + 1;
                add (I.Ck_lt (idx, count)) "constant index out of bounds"
            | _ ->
                (match idx_const with
                | Some i when i >= 0L -> ()
                | _ ->
                    ctx.stats.checks_lower <- ctx.stats.checks_lower + 1;
                    add (I.Ck_le (I.zero, idx)) "counted pointer lower bound");
                ctx.stats.checks_upper <- ctx.stats.checks_upper + 1;
                add (I.Ck_lt (idx, count)) "counted pointer upper bound"))
    | Some (Annot.Nullterm c) -> (
        match instantiate_count ctx c base with
        | None -> ()
        | Some count ->
            (match idx_const with
            | Some i when i >= 0L -> ()
            | _ ->
                ctx.stats.checks_lower <- ctx.stats.checks_lower + 1;
                add (I.Ck_le (I.zero, idx)) "nullterm lower bound");
            if is_write then begin
              (* Writes must not clobber the terminator. *)
              ctx.stats.checks_upper <- ctx.stats.checks_upper + 1;
              add (I.Ck_lt (idx, count)) "nullterm write below count"
            end
            else if not (idx_const = Some 0L) then begin
              ctx.stats.checks_upper <- ctx.stats.checks_upper + 1;
              add (I.Ck_le (idx, count)) "nullterm read within count+1"
            end));
    List.rev !checks
  end

(* Collect checks for every memory access inside an expression
   (reads), recursing into sub-expressions first. *)
let rec checks_of_exp ctx (e : I.exp) : I.stmt list =
  match e.I.e with
  | I.Econst _ | I.Estr _ | I.Efun _ | I.Eself_field _ -> []
  | I.Elval lv -> checks_of_lval ctx ~is_write:false lv
  | I.Eunop (_, e1) | I.Ecast (_, e1) -> checks_of_exp ctx e1
  | I.Ebinop (_, a, b) -> checks_of_exp ctx a @ checks_of_exp ctx b
  | I.Econd (c, a, b) ->
      (* Arm accesses are conditional; hoisting their checks would be
         unsound (they might not execute). Only the condition is
         unconditionally evaluated; arms with derefs keep VM-level
         safety. Count them as unresolved. *)
      let arm_derefs =
        I.fold_exp
          (fun acc sub -> match sub.I.e with I.Elval (I.Lmem _, _) -> acc + 1 | _ -> acc)
          0 a
        + I.fold_exp
            (fun acc sub -> match sub.I.e with I.Elval (I.Lmem _, _) -> acc + 1 | _ -> acc)
            0 b
      in
      if arm_derefs > 0 then ctx.stats.unresolved_ops <- ctx.stats.unresolved_ops + arm_derefs;
      checks_of_exp ctx c
  | I.Eaddrof lv | I.Estartof lv ->
      (* Taking an address performs no access; only inner index
         expressions are evaluated. *)
      let _, offs = lv in
      List.concat_map
        (function I.Oindex ie -> checks_of_exp ctx ie | I.Ofield _ -> [])
        offs

and checks_of_lval ctx ~is_write ((host, offs) : I.lval) : I.stmt list =
  let host_checks, host_ty =
    match host with
    | I.Lvar v -> ([], v.I.vty)
    | I.Lmem p ->
        let inner = checks_of_exp ctx p in
        let t = match p.I.ety with I.Tptr (t, _) -> t | t -> t in
        (inner @ bounds_checks ctx ~is_write p, t)
  in
  (* Array index bounds along the offset path. *)
  let checks, _ =
    List.fold_left
      (fun (acc, ty) off ->
        match (off, ty) with
        | I.Ofield f, _ -> (acc, f.I.fty)
        | I.Oindex ie, I.Tarray (elt, n) ->
            let ichecks = checks_of_exp ctx ie in
            let bc =
              if ctx.trusted then begin
                ctx.stats.trusted_ops <- ctx.stats.trusted_ops + 1;
                []
              end
              else begin
                match Annot.const_fold ie with
                | Some i when i >= 0L && i < Int64.of_int n -> []
                | Some i ->
                    ctx.stats.static_errors <-
                      ( Printf.sprintf "constant index %Ld out of array bounds %d" i n,
                        !(ctx.loc) )
                      :: ctx.stats.static_errors;
                    ctx.stats.checks_upper <- ctx.stats.checks_upper + 1;
                    [ mk_check ctx (I.Ck_lt (ie, I.const_int (Int64.of_int n))) "array bound" ]
                | None ->
                    ctx.stats.checks_lower <- ctx.stats.checks_lower + 1;
                    ctx.stats.checks_upper <- ctx.stats.checks_upper + 1;
                    [
                      mk_check ctx (I.Ck_le (I.zero, ie)) "array lower bound";
                      mk_check ctx
                        (I.Ck_lt (ie, I.const_int (Int64.of_int n)))
                        "array upper bound";
                    ]
              end
            in
            (acc @ ichecks @ bc, elt)
        | I.Oindex _, t -> (acc, t))
      (host_checks, host_ty) offs
  in
  checks

(* ------------------------------------------------------------------ *)
(* Count-compatibility at assignments and calls.                      *)
(* ------------------------------------------------------------------ *)

let is_null_const (e : I.exp) = match e.I.e with I.Econst 0L -> true | _ -> false

(* Flow of [src] into a destination of type [dst_ty]; [dst_base] is
   the struct base when the destination is a field (for self counts). *)
let flow_checks ctx ~(dst_ty : I.ty) ~(dst_base : I.lval option) (src : I.exp) : I.stmt list =
  if ctx.trusted then []
  else
    match dst_ty with
    | I.Tptr (_, dst_a) ->
        if dst_a.I.a_trusted then begin
          ctx.stats.trusted_ops <- ctx.stats.trusted_ops + 1;
          []
        end
        else if is_null_const src then begin
          (* Null into a non-opt pointer: a definite invariant
             violation unless the destination is __opt. *)
          if not dst_a.I.a_opt then
            ctx.stats.static_errors <-
              ("null assigned to non-__opt pointer", !(ctx.loc)) :: ctx.stats.static_errors;
          []
        end
        else begin
          let checks = ref [] in
          (* Optional source into non-optional destination. *)
          (if (not dst_a.I.a_opt) && Annot.is_opt_ty src.I.ety then begin
             ctx.stats.checks_nonnull <- ctx.stats.checks_nonnull + 1;
             checks := mk_check ctx (I.Ck_nonnull src) "opt pointer into non-opt" :: !checks
           end);
          (* Element count compatibility. *)
          let required =
            match (dst_a.I.a_count, dst_a.I.a_nullterm) with
            | Some c, _ ->
                if Annot.mentions_self c then
                  match dst_base with
                  | Some base -> Some (Annot.subst_self base c)
                  | None ->
                      ctx.stats.unresolved_ops <- ctx.stats.unresolved_ops + 1;
                      None
                else Some c
            | None, _ -> None
          in
          (match required with
          | None -> ()
          | Some req -> (
              (* Look through pointer casts: counts are a property of
                 where the value came from. A void* source (allocator
                 result) blesses the destination's count — the VM's
                 allocation map backs it, and the operation is counted
                 like Deputy's allocator trust. *)
              let origin = I.strip_ptr_casts src in
              let from_void =
                match origin.I.ety with I.Tptr (I.Tvoid, _) -> true | _ -> false
              in
              if from_void then ctx.stats.blessed_casts <- ctx.stats.blessed_casts + 1;
              match (if from_void then None else actual_count ctx origin) with
              | None -> ()
              | Some actual ->
                  if Annot.exp_equal req actual then ()
                  else begin
                    match (req.I.e, actual.I.e) with
                    | I.Econst r, I.Econst a when a >= r -> ()
                    | I.Econst r, I.Econst a ->
                        ctx.stats.static_errors <-
                          ( Printf.sprintf "pointer with %Ld elements flows where %Ld required" a r,
                            !(ctx.loc) )
                          :: ctx.stats.static_errors;
                        ctx.stats.checks_count_flow <- ctx.stats.checks_count_flow + 1;
                        checks := mk_check ctx (I.Ck_le (req, actual)) "count flow" :: !checks
                    | _ ->
                        ctx.stats.checks_count_flow <- ctx.stats.checks_count_flow + 1;
                        checks := mk_check ctx (I.Ck_le (req, actual)) "count flow" :: !checks
                  end));
          (* Nullterm compatibility: a nullterm destination requires a
             nullterm source. *)
          if dst_a.I.a_nullterm && not (Annot.is_opt_ty src.I.ety && is_null_const src) then begin
            match Annot.classify_ty src.I.ety with
            | Some (Annot.Nullterm _) | None -> ()
            | Some Annot.Trusted -> ()
            | Some (Annot.Safe | Annot.Counted _) ->
                ctx.stats.static_errors <-
                  ("non-nullterm pointer flows into nullterm", !(ctx.loc))
                  :: ctx.stats.static_errors
          end;
          List.rev !checks
        end
    | _ -> []

(* ------------------------------------------------------------------ *)
(* Instruction / statement instrumentation.                           *)
(* ------------------------------------------------------------------ *)

(* Writes to a variable or field that a dependent count mentions must
   preserve the invariant that the counted pointer still has that many
   elements. Deputy's practical rule: the count may shrink freely, and
   may take any value while the dependent pointer is null (the
   initialization pattern `v.len = n; v.data = kmalloc(...)`); growing
   a live pointer's count needs trusted code.

   The check is Ck_le(new, ptr == null ? new : old_count), evaluated
   before the store so `old_count` reads the old value. *)
let count_update_checks ctx (lv : I.lval) (rhs : I.exp) : I.stmt list =
  if ctx.trusted then []
  else begin
    let mk_guard ~(ptr : I.exp) ~(old_count : I.exp) =
      let is_null =
        I.mk_exp (I.Ebinop (Kc.Ast.Eq, ptr, I.mk_exp (I.Ecast (ptr.I.ety, I.zero)) ptr.I.ety))
          I.int_type
      in
      let bound = I.mk_exp (I.Econd (is_null, rhs, old_count)) old_count.I.ety in
      ctx.stats.checks_count_flow <- ctx.stats.checks_count_flow + 1;
      mk_check ctx (I.Ck_le (rhs, bound)) "dependent count update"
    in
    match lv with
    | host, offs when offs <> [] -> (
        (* Field write: siblings whose count mentions this field. *)
        match List.rev offs with
        | I.Ofield f :: rev_base when I.is_integral f.I.fty -> (
            let base = (host, List.rev rev_base) in
            match Hashtbl.find_opt ctx.prog.I.comps f.I.fcomp with
            | None -> []
            | Some comp ->
                List.filter_map
                  (fun (sib : I.fieldinfo) ->
                    match sib.I.fty with
                    | I.Tptr (_, a) -> (
                        match a.I.a_count with
                        | Some c
                          when I.fold_exp
                                 (fun acc sub ->
                                   acc
                                   ||
                                   match sub.I.e with
                                   | I.Eself_field (_, fname) -> fname = f.I.fname
                                   | _ -> false)
                                 false c ->
                            let ptr =
                              I.mk_exp (I.Elval (fst base, snd base @ [ I.Ofield sib ])) sib.I.fty
                            in
                            let old_count = Annot.subst_self base c in
                            Some (mk_guard ~ptr ~old_count)
                        | _ -> None)
                    | _ -> None)
                  comp.I.cfields)
        | _ -> [])
    | I.Lvar v, [] when I.is_integral v.I.vty ->
        (* Local/param write: local pointers whose count mentions v. *)
        List.filter_map
          (fun (p : I.varinfo) ->
            match p.I.vty with
            | I.Tptr (_, a) -> (
                match a.I.a_count with
                | Some c
                  when I.fold_exp
                         (fun acc sub ->
                           acc
                           ||
                           match sub.I.e with
                           | I.Elval (I.Lvar w, []) -> w.I.vid = v.I.vid
                           | _ -> false)
                         false c ->
                    let ptr = I.mk_exp (I.Elval (I.Lvar p, [])) p.I.vty in
                    Some (mk_guard ~ptr ~old_count:c)
                | _ -> None)
            | _ -> None)
          (ctx.fd.I.sformals @ ctx.fd.I.slocals)
    | _ -> []
  end

(* Detect nullterm pointer advance: v = v + 1 where v is nullterm. *)
let nt_advance_check ctx (lv : I.lval) (e : I.exp) : I.stmt list =
  match (lv, e.I.e) with
  | (I.Lvar v, []), I.Ebinop (Kc.Ast.Add, { I.e = I.Elval (I.Lvar w, []); _ }, inc)
    when v.I.vid = w.I.vid -> (
      match (Annot.classify_ty v.I.vty, Annot.const_fold inc) with
      | Some (Annot.Nullterm _), Some 1L ->
          if ctx.trusted then []
          else begin
            ctx.stats.checks_nt <- ctx.stats.checks_nt + 1;
            let width =
              match v.I.vty with
              | I.Tptr (t, _) -> ( try Kc.Layout.size_of ctx.prog t with _ -> 1)
              | _ -> 1
            in
            [
              mk_check ctx
                (I.Ck_nt_next (I.mk_exp (I.Elval (I.Lvar v, [])) v.I.vty, width))
                "nullterm advance";
            ]
          end
      | Some (Annot.Nullterm _), _ ->
          ctx.stats.static_errors <-
            ("nullterm pointer advanced by more than one", !(ctx.loc)) :: ctx.stats.static_errors;
          []
      | _ -> [])
  | _ -> []

let checks_of_instr ctx (instr : I.instr) : I.stmt list =
  match instr with
  | I.Iset (lv, e) ->
      let dst_ty = I.lval_type lv in
      let dst_base =
        match List.rev (snd lv) with
        | I.Ofield _ :: rev_rest -> Some (fst lv, List.rev rev_rest)
        | _ -> None
      in
      checks_of_exp ctx e
      @ checks_of_lval ctx ~is_write:true lv
      @ nt_advance_check ctx lv e
      @ count_update_checks ctx lv e
      @ flow_checks ctx ~dst_ty ~dst_base e
  | I.Icall (ret, target, args) ->
      let arg_checks = List.concat_map (checks_of_exp ctx) args in
      let ret_checks =
        match ret with Some lv -> checks_of_lval ctx ~is_write:true lv | None -> []
      in
      let target_checks =
        match target with I.Indirect fe -> checks_of_exp ctx fe | I.Direct _ -> []
      in
      let param_flow =
        match target with
        | I.Direct name -> (
            match I.find_fun ctx.prog name with
            | Some callee ->
                let bindings =
                  List.map2
                    (fun (f : I.varinfo) a -> (f.I.vid, a))
                    callee.I.sformals
                    (List.filteri (fun i _ -> i < List.length callee.I.sformals) args)
                in
                List.concat
                  (List.map2
                     (fun (f : I.varinfo) arg ->
                       match f.I.vty with
                       | I.Tptr (_, a) ->
                           let inst_ty =
                             match a.I.a_count with
                             | Some c when Annot.only_mentions_formals callee.I.sformals c ->
                                 let c' = Annot.subst_formals bindings c in
                                 I.Tptr
                                   ( (match f.I.vty with I.Tptr (t, _) -> t | t -> t),
                                     { a with I.a_count = Some c' } )
                             | Some _ ->
                                 ctx.stats.unresolved_ops <- ctx.stats.unresolved_ops + 1;
                                 I.Tptr
                                   ( (match f.I.vty with I.Tptr (t, _) -> t | t -> t),
                                     { a with I.a_count = None; I.a_trusted = true } )
                             | None -> f.I.vty
                           in
                           flow_checks ctx ~dst_ty:inst_ty ~dst_base:None arg
                       | _ -> [])
                     callee.I.sformals
                     (List.filteri (fun i _ -> i < List.length callee.I.sformals) args))
            | None -> [])
        | I.Indirect _ ->
            (* Count flow through function pointers is not checked;
               recorded as unresolved (Deputy would require trusted or
               dependent function types). *)
            List.iter
              (fun (a : I.exp) ->
                match Annot.classify_ty a.I.ety with
                | Some _ -> ctx.stats.unresolved_ops <- ctx.stats.unresolved_ops + 1
                | None -> ())
              args;
            []
      in
      arg_checks @ target_checks @ param_flow @ ret_checks
  | I.Icheck _ | I.Irc_inc _ | I.Irc_dec _ | I.Irc_update _ -> []

let rec instrument_block ctx (b : I.block) : I.block = List.concat_map (instrument_stmt ctx) b

and instrument_stmt ctx (s : I.stmt) : I.stmt list =
  ctx.loc := s.I.sloc;
  match s.I.sk with
  | I.Sinstr instr -> checks_of_instr ctx instr @ [ s ]
  | I.Sif (c, b1, b2) ->
      let cond_checks = if ctx.trusted then [] else checks_of_exp ctx c in
      cond_checks
      @ [ { s with I.sk = I.Sif (c, instrument_block ctx b1, instrument_block ctx b2) } ]
  | I.Swhile (c, body, step) ->
      let cond_checks = if ctx.trusted then [] else checks_of_exp ctx c in
      let body' = instrument_block ctx body in
      let step' = instrument_block ctx step in
      if cond_checks = [] then [ { s with I.sk = I.Swhile (c, body', step') } ]
      else
        (* The condition needs checks on every evaluation: rewrite to
           an infinite loop with an explicit conditional break. *)
        let break_if_done =
          { s with I.sk = I.Sif (c, [], [ { s with I.sk = I.Sbreak } ]) }
        in
        [ { s with I.sk = I.Swhile (I.one, cond_checks @ [ break_if_done ] @ body', step') } ]
  | I.Sdowhile (body, c) ->
      let cond_checks = if ctx.trusted then [] else checks_of_exp ctx c in
      let body' = instrument_block ctx body in
      [ { s with I.sk = I.Sdowhile (body' @ cond_checks, c) } ]
  | I.Sswitch (e, cases) ->
      let e_checks = if ctx.trusted then [] else checks_of_exp ctx e in
      e_checks
      @ [
          {
            s with
            I.sk =
              I.Sswitch
                ( e,
                  List.map (fun c -> { c with I.cbody = instrument_block ctx c.I.cbody }) cases );
          };
        ]
  | I.Sreturn (Some e) ->
      let e_checks = if ctx.trusted then [] else checks_of_exp ctx e in
      e_checks @ [ s ]
  | I.Sreturn None | I.Sbreak | I.Scontinue -> [ s ]
  | I.Sblock b -> [ { s with I.sk = I.Sblock (instrument_block ctx b) } ]
  | I.Sdelayed b -> [ { s with I.sk = I.Sdelayed (instrument_block ctx b) } ]
  | I.Strusted b ->
      let was = ctx.trusted in
      ctx.trusted <- true;
      let b' = instrument_block ctx b in
      ctx.trusted <- was;
      [ { s with I.sk = I.Strusted b' } ]

let instrument_fundec prog stats (fd : I.fundec) : unit =
  let trusted_fn = List.mem Kc.Ast.Ftrusted fd.I.fannots in
  let ctx = { prog; stats; fd; trusted = trusted_fn; loc = ref fd.I.floc } in
  fd.I.fbody <- instrument_block ctx fd.I.fbody;
  stats.functions_instrumented <- stats.functions_instrumented + 1

(* Instrument a whole program in place; returns the census. *)
let instrument_program (prog : I.program) : stats =
  let stats = new_stats () in
  List.iter (fun fd -> instrument_fundec prog stats fd) prog.I.funcs;
  stats
