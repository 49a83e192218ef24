(* Relational (interface) summaries: per-function facts derived from
   the pointer flow of the program — function signatures,
   pointer-relevant instructions, branch structure with pointer
   conditions, and all returns.

   The current fact is [ret_nonnull]: every way the function can
   return yields a provably non-null pointer.  This needs flow
   sensitivity (a flat instruction list cannot distinguish
   [p = &g; return p] from [if (c) p = &g; return p], and a function
   that falls off the end returns 0), so the summary runs a small
   must-analysis over the statement tree:

   - state = the set of stable pointer locals definitely holding a
     non-null value (plus an explicit unreachable bottom, which is
     what lets the classic allocator-wrapper pattern
     [p = kzalloc(..); if (!p) return 0; ...; return p] summarize as
     non-null: the null-return branch contradicts the allocator's
     non-null guarantee and drops out);
   - joins intersect, loops run to a descending fixpoint, switch
     cases chain fallthrough states;
   - conditions refine only through pointer patterns ([p], [!p],
     [p == 0], [p != 0]) — anything else is opaque;
   - a reachable [return e] keeps [ret_nonnull] only if [e] is
     syntactically non-null under the current state; a reachable
     fall-off-the-end (the VM returns 0 there) kills it.

   Functions are summarized callees-first over the Tarjan SCC
   condensation (shared with {!Summary}), so wrapper chains compose;
   recursive components degrade to "no claim".  SCC levels solve on a
   {!Par} pool, and the result is jobs-invariant by the same argument
   as {!Summary.compute}. *)

module I = Kc.Ir
module A = Kc.Ast
module IS = Set.Make (Int)

type st = Unreach | S of IS.t

let inter a b =
  match (a, b) with
  | Unreach, x | x, Unreach -> x
  | S a, S b -> S (IS.inter a b)

let st_equal a b =
  match (a, b) with
  | Unreach, Unreach -> true
  | S a, S b -> IS.equal a b
  | _ -> false

let inter_all = List.fold_left inter Unreach

(* Stable pointer local: trackable in the must-non-null set. *)
let tracked (v : I.varinfo) = Deputy.Facts.stable v && I.is_pointer v.I.vty

(* Syntactic non-null under [nn]. *)
let rec nonnull_exp (nn : IS.t) (e : I.exp) : bool =
  match e.I.e with
  | I.Eaddrof _ | I.Estartof _ | I.Estr _ | I.Efun _ -> true
  | I.Ecast (ty, e1) when I.is_pointer ty && I.is_pointer e1.I.ety -> nonnull_exp nn e1
  | I.Elval (I.Lvar v, []) when tracked v -> IS.mem v.I.vid nn
  | I.Econd (_, a, b) -> nonnull_exp nn a && nonnull_exp nn b
  | _ -> false

let is_null_const (e : I.exp) =
  match e.I.e with
  | I.Econst 0L -> true
  | I.Ecast (_, { I.e = I.Econst 0L; _ }) -> true
  | _ -> false

(* Branch refinement through pointer conditions only. *)
let rec refine (nn : IS.t) (cond : I.exp) (branch : bool) : st =
  match cond.I.e with
  | I.Eunop (A.Lognot, e1) -> refine nn e1 (not branch)
  | I.Ecast (ty, e1) when I.is_pointer ty || I.is_pointer e1.I.ety -> refine nn e1 branch
  | I.Elval (I.Lvar v, []) when tracked v ->
      if branch then S (IS.add v.I.vid nn)
      else if IS.mem v.I.vid nn then Unreach
      else S nn
  | I.Ebinop ((A.Eq | A.Ne) as op, a, b) -> (
      let target =
        match (a.I.e, b.I.e) with
        | I.Elval (I.Lvar v, []), _ when tracked v && is_null_const b -> Some v
        | _, I.Elval (I.Lvar v, []) when tracked v && is_null_const a -> Some v
        | _ -> None
      in
      match target with
      | Some v ->
          let is_null = (op = A.Eq) = branch in
          if is_null then if IS.mem v.I.vid nn then Unreach else S nn
          else S (IS.add v.I.vid nn)
      | None -> S nn)
  | _ -> S nn

let refine_st st cond branch =
  match st with Unreach -> Unreach | S nn -> refine nn cond branch

(* Instruction transfer (checks and refcount ops are ignored; plain
   arithmetic cannot touch tracked pointers). *)
let instr_nn (ifaces : Transfer.fn_iface Transfer.SM.t) (nn : IS.t) (i : I.instr) : IS.t =
  match i with
  | I.Iset ((I.Lvar v, []), e) when tracked v ->
      if nonnull_exp nn e then IS.add v.I.vid nn else IS.remove v.I.vid nn
  | I.Icall (Some (I.Lvar v, []), I.Direct f, _) when tracked v ->
      let ok =
        List.mem f Transfer.allocators
        ||
        match Transfer.SM.find_opt f ifaces with
        | Some { Transfer.ret_nonnull = b } -> b
        | None -> false
      in
      if ok then IS.add v.I.vid nn else IS.remove v.I.vid nn
  | I.Icall (Some (I.Lvar v, []), _, _) when tracked v -> IS.remove v.I.vid nn
  | I.Iset _ | I.Icall _ | I.Icheck _ | I.Irc_inc _ | I.Irc_dec _ | I.Irc_update _ -> nn

type wctx = {
  ifaces : Transfer.fn_iface Transfer.SM.t;
  ret_ptr : bool; (* does the function return a pointer? *)
  mutable ret_ok : bool; (* every reachable return non-null so far *)
  mutable breaks : st list ref list; (* innermost loop/switch first *)
  mutable conts : st list ref list; (* innermost loop first *)
}

let record stack st = match stack with collector :: _ -> collector := st :: !collector | [] -> ()

let rec walk_block ctx (st : st) (b : I.block) : st =
  List.fold_left (fun st s -> walk_stmt ctx st s) st b

(* Returns the fall-through state ([Unreach] when control cannot fall
   through). Dead statements contribute nothing — in particular an
   unreachable [return 0] does not spoil [ret_ok]. *)
and walk_stmt ctx (st : st) (s : I.stmt) : st =
  match st with
  | Unreach -> Unreach
  | S nn -> (
      match s.I.sk with
      | I.Sinstr i -> S (instr_nn ctx.ifaces nn i)
      | I.Sreturn (Some e) ->
          if ctx.ret_ptr && not (nonnull_exp nn e) then ctx.ret_ok <- false;
          Unreach
      | I.Sreturn None ->
          if ctx.ret_ptr then ctx.ret_ok <- false;
          Unreach
      | I.Sif (c, b1, b2) ->
          let st1 = walk_block ctx (refine nn c true) b1 in
          let st2 = walk_block ctx (refine nn c false) b2 in
          inter st1 st2
      | I.Swhile (c, body, step) ->
          (* body `Break` exits without the step; Normal/Continue run
             the step; a `Break` in the step exits too (VM semantics) *)
          let breaks = ref [] and conts = ref [] in
          ctx.breaks <- breaks :: ctx.breaks;
          ctx.conts <- conts :: ctx.conts;
          let rec fix entry =
            breaks := [];
            conts := [];
            let inb = refine_st entry c true in
            let out_body = walk_block ctx inb body in
            let pre_step = inter out_body (inter_all !conts) in
            let out_step = walk_block ctx pre_step step in
            let entry' = inter entry out_step in
            if st_equal entry' entry then entry else fix entry'
          in
          let entry = fix st in
          ctx.breaks <- List.tl ctx.breaks;
          ctx.conts <- List.tl ctx.conts;
          inter (refine_st entry c false) (inter_all !breaks)
      | I.Sdowhile (body, c) ->
          let breaks = ref [] and conts = ref [] in
          ctx.breaks <- breaks :: ctx.breaks;
          ctx.conts <- conts :: ctx.conts;
          let pre_c = ref Unreach in
          let rec fix entry =
            breaks := [];
            conts := [];
            let out = walk_block ctx entry body in
            pre_c := inter out (inter_all !conts);
            let entry' = inter entry (refine_st !pre_c c true) in
            if st_equal entry' entry then entry else fix entry'
          in
          ignore (fix st);
          ctx.breaks <- List.tl ctx.breaks;
          ctx.conts <- List.tl ctx.conts;
          inter (refine_st !pre_c c false) (inter_all !breaks)
      | I.Sswitch (_, cases) ->
          (* jump to any matching case (or default, or past the whole
             switch when none), then C fallthrough; continue escapes
             to the enclosing loop, so no conts collector here *)
          let breaks = ref [] in
          ctx.breaks <- breaks :: ctx.breaks;
          let fall =
            List.fold_left
              (fun fall (c : I.case) ->
                let entry = inter (S nn) fall in
                walk_block ctx entry c.I.cbody)
              Unreach cases
          in
          ctx.breaks <- List.tl ctx.breaks;
          let has_default = List.exists (fun (c : I.case) -> c.I.cdefault) cases in
          let skip = if has_default then Unreach else S nn in
          inter skip (inter fall (inter_all !breaks))
      | I.Sbreak ->
          record ctx.breaks st;
          Unreach
      | I.Scontinue ->
          record ctx.conts st;
          Unreach
      | I.Sblock b | I.Sdelayed b | I.Strusted b -> walk_block ctx st b)

let summarize_fn (ifaces : Transfer.fn_iface Transfer.SM.t) (fd : I.fundec) : Transfer.fn_iface =
  let ret_ptr = I.is_pointer fd.I.fret in
  if not ret_ptr then { Transfer.ret_nonnull = false }
  else begin
    let ctx = { ifaces; ret_ptr; ret_ok = true; breaks = []; conts = [] } in
    let final = walk_block ctx (S IS.empty) fd.I.fbody in
    (* a reachable end-of-body returns 0 (VM semantics): not non-null *)
    let falls_off = match final with Unreach -> false | S _ -> true in
    { Transfer.ret_nonnull = ctx.ret_ok && not falls_off }
  end

(* Callees-first over the shared SCC condensation; one level's
   components are mutually independent, so they solve on the pool and
   re-merge in SCC order — jobs-invariant like Summary.compute. *)
let compute ?(jobs = 1) (prog : I.program) : Transfer.ifaces =
  let sccs = Summary.sccs_of (List.filter (fun fd -> not fd.I.fextern) prog.I.funcs) in
  let facts =
    List.fold_left
      (fun ifaces level ->
        let solvable, recursive =
          List.partition
            (fun scc -> match scc with [ fd ] -> not (Summary.is_self_recursive fd) | _ -> false)
            level
        in
        let solved =
          Par.map ~jobs
            (fun scc ->
              match scc with
              | [ fd ] -> (fd.I.fname, summarize_fn ifaces fd)
              | _ -> assert false)
            solvable
        in
        let ifaces =
          List.fold_left (fun acc (name, f) -> Transfer.SM.add name f acc) ifaces solved
        in
        List.fold_left
          (fun ifaces scc ->
            List.fold_left
              (fun ifaces fd ->
                Transfer.SM.add fd.I.fname { Transfer.ret_nonnull = false } ifaces)
              ifaces scc)
          ifaces recursive)
      Transfer.SM.empty (Summary.levels_of sccs)
  in
  { Transfer.facts; zone = true }

(* How many functions carry a positive fact (observability). *)
let count_nonnull (ifaces : Transfer.ifaces) : int =
  Transfer.SM.fold
    (fun _ f acc -> if f.Transfer.ret_nonnull then acc + 1 else acc)
    ifaces.Transfer.facts 0
