(* The CCount C-to-C rewriting, at the IR level (paper §2.2).

   Transformations per function body:

   - every pointer write through a tracked slot [a.f = b] becomes
     "RC(b)++, RC(old a.f)--, a.f = b", via {!Kc.Ir.Irc_update}
     (increment first, so no transitory zero is observable). Writes to plain
     register locals are skipped: "the kernel version of CCount does
     not track references from local variables" (footnote 2);
   - call results stored into tracked pointer slots go through a fresh
     temporary so the same protocol applies;
   - struct assignments of pointer-bearing structs update the counts
     of every pointer field they overwrite/copy;
   - [memset]/[memcpy] on pointer-bearing structs are retargeted to
     the type-aware builtins [memset_t]/[memcpy_t] ("we had to change
     50 uses of memset and memcpy to type-aware versions");
   - the canonical allocation pattern [p = (struct T * ) kmalloc(...)]
     registers the object's runtime type information so the free path
     can drop the object's outgoing references. *)

module I = Kc.Ir

type stats = {
  mutable ptr_writes_instrumented : int;
  mutable register_writes_skipped : int; (* footnote 2 census *)
  mutable struct_copies : int;
  mutable memops_retyped : int;
  mutable alloc_sites_typed : int;
}

let new_stats () =
  {
    ptr_writes_instrumented = 0;
    register_writes_skipped = 0;
    struct_copies = 0;
    memops_retyped = 0;
    alloc_sites_typed = 0;
  }

type ctx = {
  prog : I.program;
  info : Typeinfo.t;
  stats : stats;
  fd : I.fundec;
  temp_ctr : int ref;
  (* vids currently holding a fresh allocator result *)
  mutable fresh_allocs : int list;
}

let fresh_temp ctx (ty : I.ty) : I.varinfo =
  incr ctx.temp_ctr;
  let v =
    {
      I.vname = Printf.sprintf "__rc%d" !(ctx.temp_ctr);
      vid = 1_000_000 + !(ctx.temp_ctr);
      vty = ty;
      vglob = false;
      vparam = false;
      vtemp = true;
      vaddrof = false;
    }
  in
  ctx.fd.I.slocals <- ctx.fd.I.slocals @ [ v ];
  v

(* Is this lvalue a slot CCount tracks? Plain scalar locals live in
   registers; everything else is memory. *)
let tracked_slot ((host, offs) : I.lval) : bool =
  match (host, offs) with
  | I.Lvar v, [] -> v.I.vglob || v.I.vaddrof
  | _ -> true

(* Offset paths of every pointer slot inside a type. *)
let rec pointer_paths (prog : I.program) (ty : I.ty) : I.offset list list =
  match ty with
  | I.Tptr _ -> [ [] ]
  | I.Tarray (elt, n) ->
      let inner = pointer_paths prog elt in
      if inner = [] then []
      else
        List.concat
          (List.init n (fun i ->
               List.map (fun path -> I.Oindex (I.const_int (Int64.of_int i)) :: path) inner))
  | I.Tcomp tag ->
      let c = I.comp_find prog tag in
      if c.I.cstruct then
        List.concat_map
          (fun (f : I.fieldinfo) ->
            List.map (fun path -> I.Ofield f :: path) (pointer_paths prog f.I.fty))
          c.I.cfields
      else []
  | I.Tvoid | I.Tint _ | I.Tfun _ -> []

let comp_tag_of_ptr (ty : I.ty) : string option =
  match ty with I.Tptr (I.Tcomp tag, _) -> Some tag | _ -> None

let mk_instr loc i : I.stmt = { I.sk = I.Sinstr i; sloc = loc }

(* Note that [vid] no longer holds a fresh allocation. *)
let kill_fresh ctx vid = ctx.fresh_allocs <- List.filter (fun v -> v <> vid) ctx.fresh_allocs

let rc_set_type_stmt ctx loc (lv : I.lval) tag : I.stmt =
  ctx.stats.alloc_sites_typed <- ctx.stats.alloc_sites_typed + 1;
  let tid = Typeinfo.type_id ctx.info tag in
  mk_instr loc
    (I.Icall
       ( None,
         I.Direct "__rc_set_type",
         [ I.mk_exp (I.Elval lv) (I.lval_type lv); I.const_int (Int64.of_int tid) ] ))

let instr_stmts ctx loc (instr : I.instr) : I.stmt list =
  match instr with
  | I.Iset (lv, e) -> (
      let ty = I.lval_type lv in
      match ty with
      | I.Tptr _ ->
          let stmts =
            if tracked_slot lv then begin
              ctx.stats.ptr_writes_instrumented <- ctx.stats.ptr_writes_instrumented + 1;
              [ mk_instr loc (I.Irc_update (lv, e)); mk_instr loc instr ]
            end
            else begin
              ctx.stats.register_writes_skipped <- ctx.stats.register_writes_skipped + 1;
              [ mk_instr loc instr ]
            end
          in
          (* Allocation-site RTTI: p = cast of a fresh allocation. *)
          let src = I.strip_ptr_casts e in
          let rtti =
            match (src.I.e, comp_tag_of_ptr ty) with
            | I.Elval (I.Lvar v, []), Some tag
              when List.mem v.I.vid ctx.fresh_allocs
                   && Typeinfo.pointer_offsets ctx.info tag <> [] ->
                [ rc_set_type_stmt ctx loc lv tag ]
            | _ -> []
          in
          (match lv with I.Lvar v, [] -> kill_fresh ctx v.I.vid | _ -> ());
          stmts @ rtti
      | I.Tcomp tag when Typeinfo.pointer_offsets ctx.info tag <> [] -> (
          (* Typed struct copy: adjust counts of every pointer field. *)
          match e.I.e with
          | I.Elval src_lv ->
              ctx.stats.struct_copies <- ctx.stats.struct_copies + 1;
              let updates =
                List.map
                  (fun path ->
                    let dst_slot = (fst lv, snd lv @ path) in
                    let src_slot = (fst src_lv, snd src_lv @ path) in
                    let slot_ty = I.lval_type dst_slot in
                    mk_instr loc
                      (I.Irc_update (dst_slot, I.mk_exp (I.Elval src_slot) slot_ty)))
                  (pointer_paths ctx.prog (I.Tcomp tag))
              in
              updates @ [ mk_instr loc instr ]
          | _ -> [ mk_instr loc instr ])
      | _ ->
          (match lv with I.Lvar v, [] -> kill_fresh ctx v.I.vid | _ -> ());
          [ mk_instr loc instr ])
  | I.Icall (ret, target, args) -> (
      (* Retype memset/memcpy on pointer-bearing structs. *)
      let target, args =
        match (target, args) with
        | I.Direct ("memset" as name), dst :: _ | I.Direct ("memcpy" as name), dst :: _ -> (
            match comp_tag_of_ptr (I.strip_ptr_casts dst).I.ety with
            | Some tag when Typeinfo.pointer_offsets ctx.info tag <> [] ->
                ctx.stats.memops_retyped <- ctx.stats.memops_retyped + 1;
                let tid = Typeinfo.type_id ctx.info tag in
                ( I.Direct (name ^ "_t"),
                  args @ [ I.const_int (Int64.of_int tid) ] )
            | _ -> (target, args))
        | _ -> (target, args)
      in
      let is_alloc = match target with I.Direct n -> List.mem n I.allocators | _ -> false in
      match ret with
      | Some lv when I.is_pointer (I.lval_type lv) ->
          if tracked_slot lv then begin
            (* Route through a temporary so the write protocol applies. *)
            ctx.stats.ptr_writes_instrumented <- ctx.stats.ptr_writes_instrumented + 1;
            let tmp = fresh_temp ctx (I.lval_type lv) in
            let tmp_lv = (I.Lvar tmp, []) in
            let tmp_exp = I.mk_exp (I.Elval tmp_lv) tmp.I.vty in
            let stmts =
              [
                mk_instr loc (I.Icall (Some tmp_lv, target, args));
                mk_instr loc (I.Irc_update (lv, tmp_exp));
                mk_instr loc (I.Iset (lv, tmp_exp));
              ]
            in
            (* RTTI when the destination is a typed struct pointer. *)
            let rtti =
              match comp_tag_of_ptr (I.lval_type lv) with
              | Some tag when is_alloc && Typeinfo.pointer_offsets ctx.info tag <> [] ->
                  [ rc_set_type_stmt ctx loc lv tag ]
              | _ -> []
            in
            (match lv with I.Lvar v, [] -> kill_fresh ctx v.I.vid | _ -> ());
            stmts @ rtti
          end
          else begin
            ctx.stats.register_writes_skipped <- ctx.stats.register_writes_skipped + 1;
            (match lv with
            | I.Lvar v, [] ->
                kill_fresh ctx v.I.vid;
                if is_alloc then ctx.fresh_allocs <- v.I.vid :: ctx.fresh_allocs;
                (* Direct RTTI when a register local of struct-pointer
                   type receives the allocation. *)
                ()
            | _ -> ());
            let rtti =
              match (lv, comp_tag_of_ptr (I.lval_type lv)) with
              | (I.Lvar _, []), Some tag
                when is_alloc && Typeinfo.pointer_offsets ctx.info tag <> [] ->
                  [ rc_set_type_stmt ctx loc lv tag ]
              | _ -> []
            in
            (mk_instr loc (I.Icall (ret, target, args)) :: rtti)
          end
      | Some ((I.Lvar v, []) as _lv) ->
          kill_fresh ctx v.I.vid;
          if is_alloc then ctx.fresh_allocs <- v.I.vid :: ctx.fresh_allocs;
          [ mk_instr loc (I.Icall (ret, target, args)) ]
      | _ -> [ mk_instr loc (I.Icall (ret, target, args)) ])
  | I.Icheck _ | I.Irc_inc _ | I.Irc_dec _ | I.Irc_update _ -> [ mk_instr loc instr ]

let rec rewrite_block ctx (b : I.block) : I.block = List.concat_map (rewrite_stmt ctx) b

and rewrite_stmt ctx (s : I.stmt) : I.stmt list =
  let loc = s.I.sloc in
  match s.I.sk with
  | I.Sinstr i -> instr_stmts ctx loc i
  | I.Sif (c, b1, b2) ->
      ctx.fresh_allocs <- [];
      [ { s with I.sk = I.Sif (c, rewrite_block ctx b1, rewrite_block ctx b2) } ]
  | I.Swhile (c, body, step) ->
      ctx.fresh_allocs <- [];
      [ { s with I.sk = I.Swhile (c, rewrite_block ctx body, rewrite_block ctx step) } ]
  | I.Sdowhile (body, c) ->
      ctx.fresh_allocs <- [];
      [ { s with I.sk = I.Sdowhile (rewrite_block ctx body, c) } ]
  | I.Sswitch (e, cases) ->
      ctx.fresh_allocs <- [];
      [
        {
          s with
          I.sk =
            I.Sswitch
              (e, List.map (fun c -> { c with I.cbody = rewrite_block ctx c.I.cbody }) cases);
        };
      ]
  | I.Sbreak | I.Scontinue | I.Sreturn _ -> [ s ]
  | I.Sblock b -> [ { s with I.sk = I.Sblock (rewrite_block ctx b) } ]
  | I.Sdelayed b -> [ { s with I.sk = I.Sdelayed (rewrite_block ctx b) } ]
  | I.Strusted b -> [ { s with I.sk = I.Strusted (rewrite_block ctx b) } ]

(* Rewrite a whole program in place for CCount; returns the stats and
   the type info (which must be registered with the machine before
   running, see {!Typeinfo.register_with}). *)
let instrument_program (prog : I.program) : stats * Typeinfo.t =
  let info = Typeinfo.build prog in
  let stats = new_stats () in
  let temp_ctr = ref 0 in
  List.iter
    (fun fd ->
      let ctx = { prog; info; stats; fd; temp_ctr; fresh_allocs = [] } in
      fd.I.fbody <- rewrite_block ctx fd.I.fbody)
    prog.I.funcs;
  (stats, info)
