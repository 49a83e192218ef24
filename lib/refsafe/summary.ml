(* Interprocedural escape/ownership summaries (ROADMAP item 2, after
   Hattori et al., "Automatic Detection of Reference Counting Bugs in
   Linux Kernel Drivers").

   Per defined function, a flow-insensitive may-analysis computes which
   pointer formals can escape (be stored where the caller can't account
   for them), which can be freed (ownership transfer into the callee),
   whether the function can free anything at all, whether it can write
   a global pointer slot, and where its return value can come from.

   The summaries are solved callees-first over the same Tarjan SCC
   condensation as the absint return summaries
   ({!Absint.Summary.sccs_of}), one component at a time. Recursive
   components degrade to the conservative all-bets-off summary. *)

module I = Kc.Ir
module SM = Map.Make (String)

type fsum = {
  may_free : bool; (* can free some object, directly or transitively *)
  writes_glob_ptr : bool; (* can store to a global pointer slot *)
  runs_handlers : bool; (* can run guest code via raise_irq / unknowns *)
  escaping_params : int list; (* pointer formals whose value may escape *)
  freed_params : int list; (* pointer formals that may be freed *)
  returns_alloc : bool; (* result may be a fresh allocation *)
  returns_param : int list; (* result may alias these formals *)
  returns_other : bool; (* result may alias something shared *)
}

type summaries = fsum SM.t

let bottom_sum =
  {
    may_free = false;
    writes_glob_ptr = false;
    runs_handlers = false;
    escaping_params = [];
    freed_params = [];
    returns_alloc = false;
    returns_param = [];
    returns_other = false;
  }

let ptr_formal_idxs (fd : I.fundec) : int list =
  List.mapi (fun i v -> (i, v)) fd.I.sformals
  |> List.filter_map (fun (i, v) -> if I.is_pointer v.I.vty then Some i else None)

let conservative_sum (fd : I.fundec) : fsum =
  let ptrs = ptr_formal_idxs fd in
  {
    may_free = true;
    writes_glob_ptr = true;
    runs_handlers = true;
    escaping_params = ptrs;
    freed_params = ptrs;
    returns_alloc = false;
    returns_param = ptrs;
    returns_other = true;
  }

(* ---- the VM's extern surface -------------------------------------- *)

(* Free-family externs: index of the formal whose target is released. *)
let free_extern = function
  | "kfree" | "vfree" | "free_pages" -> Some [ 0 ]
  | "kmem_cache_free" -> Some [ 1 ]
  | _ -> None

(* Builtins that neither free nor capture their pointer arguments, and
   never write a program global (VM builtins only mutate through the
   pointers they are handed, which can never reach a no-address-taken
   global slot). *)
let benign_externs =
  [
    "memset";
    "memcpy";
    "memmove";
    "memcmp";
    "memset_t";
    "memcpy_t";
    "strlen";
    "strcpy";
    "strcmp";
    "printk";
    "panic";
    "local_irq_disable";
    "local_irq_enable";
    "spin_lock";
    "spin_unlock";
    "spin_lock_irqsave";
    "spin_unlock_irqrestore";
    "in_interrupt";
    "irq_enter";
    "irq_exit";
    "raise_irq";
    "assert_not_atomic";
    "schedule";
    "might_sleep";
    "msleep";
    "wait_for_completion";
    "complete";
    "mutex_lock";
    "mutex_unlock";
    "down";
    "up";
    "copy_to_user";
    "copy_from_user";
    "get_cycles";
    "udelay";
    "barrier";
    "cpu_relax";
    "kmem_cache_create";
    "__rc_set_type";
  ]

(* What a call site does, resolved against the extern tables and the
   already-computed summaries. *)
type callee =
  | Alloc (* returns a fresh, caller-owned object *)
  | Free of int list (* releases the targets of these args *)
  | Benign (* no free, no capture *)
  | Captures of int list (* stores (but never frees) these args *)
  | Known of fsum (* defined function with a summary *)
  | Unknown (* anything could happen *)

let callee_info (summaries : summaries) (target : I.call_target) : callee =
  match target with
  | I.Indirect _ -> Unknown
  | I.Direct f -> (
      if List.mem f I.allocators then Alloc
      else
        match free_extern f with
        | Some idxs -> Free idxs
        | None -> (
            if List.mem f benign_externs then Benign
            else if f = "request_irq" then Captures [ 1 ]
            else match SM.find_opt f summaries with Some s -> Known s | None -> Unknown))

(* ---- shared IR helpers -------------------------------------------- *)

let rec is_null (e : I.exp) : bool =
  match e.I.e with
  | I.Econst 0L -> true
  | I.Ecast (_, e1) -> is_null e1
  | _ -> false

(* Non-global scalar pointer variables mentioned in [e] (candidates for
   escape / free marking). *)
let var_roots (e : I.exp) : I.varinfo list =
  I.fold_exp
    (fun acc e1 ->
      match e1.I.e with
      | I.Elval (I.Lvar v, []) when (not v.I.vglob) && I.is_pointer v.I.vty -> v :: acc
      | _ -> acc)
    [] e
  |> List.rev

(* Every top-level expression of a statement (conditions included). *)
let exps_of_stmt (s : I.stmt) : I.exp list =
  match s.I.sk with
  | I.Sinstr i ->
      let lv_exps =
        match I.lval_of_instr i with
        | Some (host, offs) ->
            (match host with I.Lmem e -> [ e ] | I.Lvar _ -> [])
            @ List.filter_map (function I.Oindex e -> Some e | I.Ofield _ -> None) offs
        | None -> []
      in
      I.exps_of_instr i @ lv_exps
  | I.Sif (c, _, _) | I.Swhile (c, _, _) | I.Sdowhile (_, c) | I.Sswitch (c, _) -> [ c ]
  | I.Sreturn (Some e) -> [ e ]
  | I.Sreturn None | I.Sbreak | I.Scontinue | I.Sblock _ | I.Sdelayed _ | I.Strusted _ -> []

(* Does the function cast between pointers and integers anywhere? When
   it does, pointer values can travel through integer variables and the
   per-variable tracking below is blind to it. *)
let has_ptr_int_cast (fd : I.fundec) : bool =
  let found = ref false in
  I.iter_stmts
    (fun s ->
      List.iter
        (fun e ->
          ignore
            (I.fold_exp
               (fun () e1 ->
                 match e1.I.e with
                 | I.Ecast (I.Tptr _, inner)
                   when (not (I.is_pointer inner.I.ety)) && not (is_null inner) ->
                     found := true
                 | I.Ecast (ti, inner) when I.is_integral ti && I.is_pointer inner.I.ety ->
                     found := true
                 | _ -> ())
               () e))
        (exps_of_stmt s))
    fd.I.fbody;
  !found

(* ---- per-function flow-insensitive analysis ----------------------- *)

type src = Sparam of int | Salloc | Sother

module SrcSet = Set.Make (struct
  type t = src

  let compare = compare
end)

type fana = {
  afd : I.fundec;
  asrcs : (int, SrcSet.t) Hashtbl.t; (* vid -> may-sources of its value *)
  aescaped : (int, unit) Hashtbl.t; (* vids whose value may escape *)
  afreed : (int, unit) Hashtbl.t; (* vids whose target may be freed *)
  mutable aret : SrcSet.t; (* sources of the return value *)
  mutable amay_free : bool;
  mutable awrites_glob : bool;
  mutable aruns_handlers : bool;
}

let get_srcs a vid = Option.value (Hashtbl.find_opt a.asrcs vid) ~default:SrcSet.empty

(* May-sources of a pointer-typed expression. *)
let rec roots_of a (e : I.exp) : SrcSet.t =
  if not (I.is_pointer e.I.ety) then SrcSet.empty
  else
    match e.I.e with
    | I.Econst _ -> SrcSet.empty (* null *)
    | I.Estr _ | I.Efun _ -> SrcSet.singleton Sother
    | I.Elval (I.Lvar v, []) ->
        if v.I.vglob then SrcSet.singleton Sother else get_srcs a v.I.vid
    | I.Elval _ -> SrcSet.singleton Sother (* loaded from memory *)
    | I.Eunop (_, e1) -> roots_of a e1
    | I.Ebinop (_, e1, e2) -> SrcSet.union (roots_of a e1) (roots_of a e2)
    | I.Econd (_, e1, e2) -> SrcSet.union (roots_of a e1) (roots_of a e2)
    | I.Ecast (_, e1) ->
        if I.is_pointer e1.I.ety then roots_of a e1
        else if is_null e1 then SrcSet.empty
        else SrcSet.singleton Sother (* forged from an integer *)
    | I.Eaddrof _ | I.Estartof _ -> SrcSet.singleton Sother
    | I.Eself_field _ -> SrcSet.empty

let mark tbl v = if not (Hashtbl.mem tbl v.I.vid) then Hashtbl.replace tbl v.I.vid ()
let mark_all tbl vs = List.iter (mark tbl) vs

(* One monotone pass over the body; [changed] reports set growth so the
   caller can iterate to a fixpoint (assignment chains q = p; r = q). *)
let pass (summaries : summaries) (a : fana) : bool =
  let changed = ref false in
  let card tbl = Hashtbl.length tbl in
  let before =
    ( Hashtbl.fold (fun _ s acc -> acc + SrcSet.cardinal s) a.asrcs 0,
      card a.aescaped,
      card a.afreed,
      SrcSet.cardinal a.aret,
      a.amay_free,
      a.awrites_glob,
      a.aruns_handlers )
  in
  let add_srcs v srcs =
    let old = get_srcs a v.I.vid in
    let nw = SrcSet.union old srcs in
    if not (SrcSet.equal old nw) then Hashtbl.replace a.asrcs v.I.vid nw
  in
  (* escape pointer vars smuggled through pointer<->integer casts *)
  let scan_casts e =
    ignore
      (I.fold_exp
         (fun () e1 ->
           match e1.I.e with
           | I.Ecast (ti, inner) when I.is_integral ti && I.is_pointer inner.I.ety ->
               mark_all a.aescaped (var_roots inner)
           | _ -> ())
         () e)
  in
  let do_call ret target args =
    (* raise_irq synchronously runs a registered guest handler, which
       can free objects and write globals the caller can't see through
       the direct call graph; callers of [fsum] that need a quiescence
       window (Discharge R3) must treat it as arbitrary guest code. *)
    (match target with
    | I.Direct "raise_irq" -> a.aruns_handlers <- true
    | _ -> ());
    (match callee_info summaries target with
    | Alloc | Benign -> ()
    | Free idxs ->
        a.amay_free <- true;
        List.iter
          (fun i ->
            match List.nth_opt args i with
            | Some arg -> mark_all a.afreed (var_roots arg)
            | None -> ())
          idxs
    | Captures idxs ->
        List.iter
          (fun i ->
            match List.nth_opt args i with
            | Some arg -> mark_all a.aescaped (var_roots arg)
            | None -> ())
          idxs
    | Known s ->
        if s.may_free then a.amay_free <- true;
        if s.writes_glob_ptr then a.awrites_glob <- true;
        if s.runs_handlers then a.aruns_handlers <- true;
        List.iter (fun i ->
            match List.nth_opt args i with
            | Some arg -> mark_all a.aescaped (var_roots arg)
            | None -> ())
          s.escaping_params;
        List.iter (fun i ->
            match List.nth_opt args i with
            | Some arg -> mark_all a.afreed (var_roots arg)
            | None -> ())
          s.freed_params
    | Unknown ->
        a.amay_free <- true;
        a.awrites_glob <- true;
        a.aruns_handlers <- true;
        List.iter
          (fun arg ->
            if I.is_pointer arg.I.ety then begin
              mark_all a.aescaped (var_roots arg);
              mark_all a.afreed (var_roots arg)
            end)
          args);
    (* result sources *)
    match ret with
    | Some (I.Lvar v, []) when (not v.I.vglob) && I.is_pointer v.I.vty -> (
        match callee_info summaries target with
        | Alloc -> add_srcs v (SrcSet.singleton Salloc)
        | Free _ | Benign | Captures _ -> add_srcs v (SrcSet.singleton Sother)
        | Known s ->
            let srcs = if s.returns_alloc then SrcSet.singleton Salloc else SrcSet.empty in
            let srcs =
              List.fold_left
                (fun acc i ->
                  match List.nth_opt args i with
                  | Some arg -> SrcSet.union acc (roots_of a arg)
                  | None -> acc)
                srcs s.returns_param
            in
            let srcs = if s.returns_other then SrcSet.add Sother srcs else srcs in
            add_srcs v srcs
        | Unknown -> add_srcs v (SrcSet.singleton Sother))
    | Some ((I.Lvar g, _) as lv) when g.I.vglob ->
        if I.is_pointer (I.lval_type lv) then a.awrites_glob <- true
    | _ -> ()
  in
  I.iter_stmts
    (fun s ->
      List.iter scan_casts (exps_of_stmt s);
      match s.I.sk with
      | I.Sinstr (I.Iset (lv, e)) -> (
          match lv with
          | I.Lvar v, [] when (not v.I.vglob) && I.is_pointer v.I.vty ->
              add_srcs v (roots_of a e)
          | I.Lvar v, [] when not v.I.vglob -> () (* scalar local *)
          | _ ->
              (* store into memory, a global, or an aggregate slot *)
              mark_all a.aescaped (var_roots e);
              (match fst lv with
              | I.Lvar g when g.I.vglob ->
                  if I.is_pointer (I.lval_type lv) then a.awrites_glob <- true
              | _ -> ()))
      | I.Sinstr (I.Icall (ret, target, args)) -> do_call ret target args
      | I.Sinstr (I.Icheck _ | I.Irc_inc _ | I.Irc_dec _ | I.Irc_update _) -> ()
      | I.Sreturn (Some e) ->
          let r = roots_of a e in
          if not (SrcSet.subset r a.aret) then a.aret <- SrcSet.union a.aret r
      | _ -> ())
    a.afd.I.fbody;
  let after =
    ( Hashtbl.fold (fun _ s acc -> acc + SrcSet.cardinal s) a.asrcs 0,
      card a.aescaped,
      card a.afreed,
      SrcSet.cardinal a.aret,
      a.amay_free,
      a.awrites_glob,
      a.aruns_handlers )
  in
  if before <> after then changed := true;
  !changed

let analyze (summaries : summaries) (fd : I.fundec) : fana =
  let a =
    {
      afd = fd;
      asrcs = Hashtbl.create 32;
      aescaped = Hashtbl.create 16;
      afreed = Hashtbl.create 16;
      aret = SrcSet.empty;
      amay_free = false;
      awrites_glob = false;
      aruns_handlers = false;
    }
  in
  List.iteri
    (fun i v ->
      if I.is_pointer v.I.vty then Hashtbl.replace a.asrcs v.I.vid (SrcSet.singleton (Sparam i)))
    fd.I.sformals;
  (* address-taken variables may be read or written through an alias *)
  List.iter
    (fun v -> if v.I.vaddrof then Hashtbl.replace a.aescaped v.I.vid ())
    (fd.I.sformals @ fd.I.slocals);
  while pass summaries a do
    ()
  done;
  a

let summarize (summaries : summaries) (fd : I.fundec) : fsum =
  let a = analyze summaries fd in
  let param_hits tbl =
    List.filter
      (fun i ->
        Hashtbl.fold
          (fun vid () acc -> acc || SrcSet.mem (Sparam i) (get_srcs a vid))
          tbl false)
      (ptr_formal_idxs fd)
  in
  {
    may_free = a.amay_free;
    writes_glob_ptr = a.awrites_glob;
    runs_handlers = a.aruns_handlers;
    escaping_params = param_hits a.aescaped;
    freed_params = param_hits a.afreed;
    returns_alloc = SrcSet.mem Salloc a.aret;
    returns_param =
      List.filter (fun i -> SrcSet.mem (Sparam i) a.aret) (ptr_formal_idxs fd);
    returns_other = SrcSet.mem Sother a.aret;
  }

(* ---- bottom-up computation over the SCCs ------------------------- *)

let compute (prog : I.program) : summaries =
  let defined = List.filter (fun fd -> not fd.I.fextern) prog.I.funcs in
  List.fold_left
    (fun summaries scc ->
      match scc with
      | [ fd ] when not (Absint.Summary.is_self_recursive fd) ->
          SM.add fd.I.fname (summarize summaries fd) summaries
      | _ ->
          List.fold_left
            (fun summaries fd -> SM.add fd.I.fname (conservative_sum fd) summaries)
            summaries scc)
    SM.empty (Absint.Summary.sccs_of defined)

let lookup (s : summaries) name = SM.find_opt name s
let equal (a : summaries) (b : summaries) = SM.equal ( = ) a b
