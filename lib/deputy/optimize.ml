(* Static discharge of Deputy checks.

   A structured abstract interpretation over the statement tree (KC
   has no goto, so no CFG is needed): {!Facts} flow forward through
   each function; every check that the incoming facts prove is
   deleted, every kept check contributes its own fact (so identical
   checks later on the same path are deduplicated).

   This pass is what makes the hbench *bandwidth* loops in Table 1
   come out near 1.0: the `for (i = 0; i < n; i++)` guard proves both
   bounds of `buf[i]`, so the loop body carries no residual checks. *)

module I = Kc.Ir

type stats = { mutable discharged : int; mutable kept : int }

let new_stats () = { discharged = 0; kept = 0 }

(* ------------------------------------------------------------------ *)
(* Discharge decision.                                                *)
(* ------------------------------------------------------------------ *)

let provable (facts : Facts.t) (ck : I.check) : bool =
  match ck with
  | I.Ck_nonnull e -> (
      match (Annot.strip_widening e).I.e with
      | I.Eaddrof _ | I.Estartof _ | I.Estr _ | I.Efun _ -> true
      | _ -> (
          match Facts.as_stable_var e with
          | Some v -> Facts.is_nonnull facts v
          | None -> false))
  | I.Ck_le (e1, e2) -> (
      if Annot.exp_equal e1 e2 then true
      else
        match (Facts.as_const e1, Facts.as_stable_var e1, Facts.as_const e2, Facts.as_stable_var e2) with
        | Some c1, _, Some c2, _ -> c1 <= c2
        | Some c, _, None, Some v -> (
            match Facts.lower_bound facts v with Some lo -> lo >= c | None -> false)
        | None, Some v, Some c, _ -> (
            match Facts.best_upper_const facts v with Some u -> Int64.sub u 1L <= c | None -> false)
        | None, Some v, None, Some w -> Facts.has_upper_var facts v w
        | _ -> false)
  | I.Ck_lt (e1, e2) -> (
      match (Facts.as_const e1, Facts.as_stable_var e1, Facts.as_const e2, Facts.as_stable_var e2) with
      | Some c1, _, Some c2, _ -> c1 < c2
      | None, Some v, Some c, _ -> (
          match Facts.best_upper_const facts v with Some u -> u <= c | None -> false)
      | None, Some v, None, Some w -> Facts.has_upper_var facts v w
      | Some c, _, None, Some w -> (
          match Facts.lower_bound facts w with Some lo -> lo >= Int64.add c 1L | None -> false)
      | _ -> false)
  | I.Ck_nt_next _ -> false
  | I.Ck_not_atomic -> false

(* The fact a passed check establishes. *)
let assume_check (ck : I.check) (facts : Facts.t) : Facts.t =
  match ck with
  | I.Ck_nonnull e -> (
      match Facts.as_stable_var e with
      | Some v -> Facts.add_nonnull v.I.vid facts
      | None -> facts)
  | I.Ck_le (e1, e2) -> (
      match (Facts.as_const e1, Facts.as_stable_var e1, Facts.as_const e2, Facts.as_stable_var e2) with
      | Some c, _, None, Some v -> Facts.add_lower v.I.vid c facts
      | None, Some v, Some c, _ -> Facts.add_upper v.I.vid (Facts.Bconst (Int64.add c 1L)) facts
      | _ -> facts)
  | I.Ck_lt (e1, e2) -> (
      match (Facts.as_const e1, Facts.as_stable_var e1, Facts.as_const e2, Facts.as_stable_var e2) with
      | None, Some v, Some c, _ -> Facts.add_upper v.I.vid (Facts.Bconst c) facts
      | None, Some v, None, Some w -> Facts.add_upper v.I.vid (Facts.Bvar w.I.vid) facts
      | Some c, _, None, Some w -> Facts.add_lower w.I.vid (Int64.add c 1L) facts
      | _ -> facts)
  | I.Ck_nt_next _ | I.Ck_not_atomic -> facts

(* ------------------------------------------------------------------ *)
(* Write analysis for loop bodies.                                    *)
(* ------------------------------------------------------------------ *)

type write_kind = Inc | Other

let loop_writes (blocks : I.block list) : (int, write_kind) Hashtbl.t =
  let writes = Hashtbl.create 16 in
  let note vid kind =
    match Hashtbl.find_opt writes vid with
    | Some Other -> ()
    | Some Inc -> if kind = Other then Hashtbl.replace writes vid Other
    | None -> Hashtbl.replace writes vid kind
  in
  let check_instr (i : I.instr) =
    match i with
    | I.Iset ((I.Lvar v, []), e) -> (
        match (Annot.strip_widening e).I.e with
        | I.Ebinop (Kc.Ast.Add, l, r)
          when (match Facts.as_stable_var l with Some w -> w.I.vid = v.I.vid | None -> false)
               && (match Facts.as_const r with Some k -> k >= 0L | None -> false) ->
            note v.I.vid Inc
        | _ -> note v.I.vid Other)
    | I.Iset _ -> ()
    | I.Icall (Some (I.Lvar v, []), _, _) -> note v.I.vid Other
    | I.Icall _ | I.Icheck _ | I.Irc_inc _ | I.Irc_dec _ | I.Irc_update _ -> ()
  in
  List.iter (fun b -> I.iter_instrs check_instr b) blocks;
  writes

(* Facts from [entry] that survive any number of loop iterations. *)
let preserve_through_loop (entry : Facts.t) (blocks : I.block list) : Facts.t =
  let writes = loop_writes blocks in
  let written vid = Hashtbl.mem writes vid in
  let only_incremented vid = Hashtbl.find_opt writes vid = Some Inc in
  {
    Facts.lower =
      Facts.IntMap.filter
        (fun vid _ -> (not (written vid)) || only_incremented vid)
        entry.Facts.lower;
    Facts.upper =
      Facts.IntMap.filter_map
        (fun vid bs ->
          if written vid then None
          else begin
            let bs =
              Facts.BoundSet.filter
                (function Facts.Bconst _ -> true | Facts.Bvar w -> not (written w))
                bs
            in
            if Facts.BoundSet.is_empty bs then None else Some bs
          end)
        entry.Facts.upper;
    Facts.nonnull =
      Facts.IntSet.filter
        (fun vid -> (not (written vid)) || only_incremented vid)
        entry.Facts.nonnull;
  }

let rec has_direct_break (b : I.block) : bool =
  List.exists
    (fun (s : I.stmt) ->
      match s.I.sk with
      | I.Sbreak -> true
      | I.Sif (_, b1, b2) -> has_direct_break b1 || has_direct_break b2
      | I.Sblock b1 | I.Sdelayed b1 | I.Strusted b1 -> has_direct_break b1
      | I.Swhile _ | I.Sdowhile _ | I.Sswitch _ -> false (* break binds inner *)
      | I.Sinstr _ | I.Scontinue | I.Sreturn _ -> false)
    b

(* ------------------------------------------------------------------ *)
(* The rewriting pass.                                                *)
(* ------------------------------------------------------------------ *)

type flow = Fall of Facts.t | Term

let join_flow a b =
  match (a, b) with
  | Term, x | x, Term -> x
  | Fall f1, Fall f2 -> Fall (Facts.join f1 f2)

let rec opt_block stats (facts : Facts.t) (b : I.block) : I.block * flow =
  let rec go facts acc = function
    | [] -> (List.rev acc, Fall facts)
    | s :: rest -> (
        match opt_stmt stats facts s with
        | stmts, Fall facts' -> go facts' (List.rev_append stmts acc) rest
        | stmts, Term ->
            (* The rest of the block is dead for fact purposes; keep
               it unoptimized-but-rewritten with empty facts. *)
            let rest', _ = opt_block stats Facts.top rest in
            (List.rev acc @ stmts @ rest', Term))
  in
  go facts [] b

and opt_stmt stats (facts : Facts.t) (s : I.stmt) : I.stmt list * flow =
  match s.I.sk with
  | I.Sinstr (I.Icheck (ck, _reason)) ->
      if provable facts ck then begin
        stats.discharged <- stats.discharged + 1;
        ([], Fall facts)
      end
      else begin
        stats.kept <- stats.kept + 1;
        ([ s ], Fall (assume_check ck facts))
      end
  | I.Sinstr (I.Iset ((I.Lvar v, []), e)) -> ([ s ], Fall (Facts.assign v e facts))
  | I.Sinstr (I.Iset _) -> ([ s ], Fall facts)
  | I.Sinstr (I.Icall (ret, target, _)) ->
      let facts =
        match ret with
        | Some (I.Lvar v, []) when Facts.stable v ->
            let facts = Facts.kill_var v.I.vid facts in
            let is_alloc = match target with I.Direct n -> List.mem n I.allocators | _ -> false in
            if is_alloc then Facts.add_nonnull v.I.vid facts else facts
        | _ -> facts
      in
      ([ s ], Fall facts)
  | I.Sinstr (I.Irc_inc _ | I.Irc_dec _ | I.Irc_update _) -> ([ s ], Fall facts)
  | I.Sif (c, b1, b2) ->
      let b1', f1 = opt_block stats (Facts.assume c true facts) b1 in
      let b2', f2 = opt_block stats (Facts.assume c false facts) b2 in
      ([ { s with I.sk = I.Sif (c, b1', b2') } ], join_flow f1 f2)
  | I.Swhile (c, body, step) ->
      let head = preserve_through_loop facts [ body; step ] in
      let body_in = Facts.assume c true head in
      let body', body_out = opt_block stats body_in body in
      let step_in = match body_out with Fall f -> Facts.join f head | Term -> head in
      let step', _ = opt_block stats step_in step in
      let after = if has_direct_break body then head else Facts.assume c false head in
      ([ { s with I.sk = I.Swhile (c, body', step') } ], Fall after)
  | I.Sdowhile (body, c) ->
      let head = preserve_through_loop facts [ body ] in
      let body', _ = opt_block stats (Facts.join facts head) body in
      let after = if has_direct_break body then head else Facts.assume c false head in
      ([ { s with I.sk = I.Sdowhile (body', c) } ], Fall after)
  | I.Sswitch (e, cases) ->
      (* Sequential case optimization honoring fallthrough; the state
         after the switch conservatively drops facts about anything
         written inside. *)
      let case_bodies = List.map (fun (c : I.case) -> c.I.cbody) cases in
      let after = preserve_through_loop facts case_bodies in
      let _, cases' =
        List.fold_left
          (fun (fall_in, acc) (c : I.case) ->
            let case_in = join_flow (Fall facts) fall_in in
            let in_facts = match case_in with Fall f -> f | Term -> facts in
            let body', out = opt_block stats in_facts c.I.cbody in
            (out, { c with I.cbody = body' } :: acc))
          (Term, []) cases
      in
      ([ { s with I.sk = I.Sswitch (e, List.rev cases') } ], Fall after)
  | I.Sbreak | I.Scontinue | I.Sreturn _ -> ([ s ], Term)
  | I.Sblock b ->
      let b', f = opt_block stats facts b in
      ([ { s with I.sk = I.Sblock b' } ], f)
  | I.Sdelayed b ->
      let b', f = opt_block stats facts b in
      ([ { s with I.sk = I.Sdelayed b' } ], f)
  | I.Strusted b ->
      let b', f = opt_block stats facts b in
      ([ { s with I.sk = I.Strusted b' } ], f)

let optimize_fundec stats (fd : I.fundec) : unit =
  let body', _ = opt_block stats Facts.top fd.I.fbody in
  fd.I.fbody <- body'

(* Remove statically-provable checks from an instrumented program. *)
let optimize_program (prog : I.program) : stats =
  let stats = new_stats () in
  List.iter (optimize_fundec stats) prog.I.funcs;
  stats
