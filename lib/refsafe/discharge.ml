(* CCount instrumentation discharge: delete {!Kc.Ir.Irc_update}
   instructions whose removal provably cannot change anything the VM
   observes.

   Observability model: reference counts are *read* in exactly one
   place — [Machine.do_free] sums the freed chunk's counts to decide
   residual-reference (bad free) records and leak bookkeeping. Between
   frees, counts are write-only. An update is therefore removable
   whenever no [do_free] can ever observe its effect:

   R1 (stack host). The slot's host is a non-global variable, so the
   slot lives in the interpreter stack range, and the runtime's
   [Irc_update] already skips stack addresses without evaluating the
   value expression. Removal is a no-op by construction; a trap raised
   while evaluating the slot's address expressions still fires at the
   adjacent [Iset], which shares the lvalue and source location.

   R2 (never-freed class). Erased pointee types are partitioned into
   classes, merged along every pointer-to-pointer cast (casts are the
   only way a value moves between erased types — elaboration inserts
   one at every mismatched assignment, argument, and return), with
   allocation sites exempt (a fresh object's class is its destination
   type, not the allocator's [void *]). A class is marked *freed* when
   some member may reach a free: shallow at known free externs,
   transitively through embedded pointers at unknown/indirect callees
   and type-punning mem-ops. If the class of a slot's pointee is never
   freed, no count that slot's updates touch is ever read. Any
   integer-to-pointer forging that could smuggle a heap address past
   the cast graph disables R2 (and R3) outright; constants below the
   heap base or negative (error-pointer idiom) cannot name a
   refcounted chunk and are tolerated.

   R3 (publish/retire window). A scalar, never-address-taken global
   pointer that starts null and whose *every* write is a matched
   publish (non-null) / retire (null) pair in straight-line code, with
   nothing between them that could free an object or run guest
   handler code (per the interprocedural summaries: callees must have
   [may_free = false], [writes_glob_ptr = false], and
   [runs_handlers = false]), can drop both updates: the pair is
   count-neutral, and no [do_free] can run while the count is
   transiently off. A mid-window trap ends the run before any further
   count is read.

   Removal is by physical identity, mirroring {!Absint.Discharge}. *)

module I = Kc.Ir

type stats = {
  mutable updates_seen : int;
  mutable stack_host : int; (* R1 *)
  mutable never_freed : int; (* R2 *)
  mutable publish_window : int; (* R3 *)
  mutable forged : bool; (* int->ptr forging found: R2/R3 off *)
}

let new_stats () =
  { updates_seen = 0; stack_host = 0; never_freed = 0; publish_window = 0; forged = false }

let discharged s = s.stack_host + s.never_freed + s.publish_window

(* ---- erased-type canonical names ---------------------------------- *)

let ik_char = function
  | Kc.Ast.Ichar -> "c"
  | Kc.Ast.Ishort -> "s"
  | Kc.Ast.Iint -> "i"
  | Kc.Ast.Ilong -> "l"

let rec canon (ty : I.ty) : string =
  match ty with
  | I.Tvoid -> "v"
  | I.Tint (ik, sg) ->
      "i" ^ ik_char ik ^ (match sg with Kc.Ast.Signed -> "s" | Kc.Ast.Unsigned -> "u")
  | I.Tptr (t, _) -> "p" ^ canon t
  | I.Tarray (t, n) -> Printf.sprintf "a%d.%s" n (canon t)
  | I.Tfun (r, args) -> "f" ^ canon r ^ "(" ^ String.concat "," (List.map canon args) ^ ")"
  | I.Tcomp tag -> "c" ^ tag

(* Union-find over canonical pointee-type names, remembering one
   representative {!Kc.Ir.ty} per name for structural traversal. *)
type uf = {
  parent : (string, string) Hashtbl.t;
  rep : (string, I.ty) Hashtbl.t;
  mutable keys : string list;
  freed : (string, unit) Hashtbl.t; (* by root, after [seal] *)
}

let uf_create () =
  { parent = Hashtbl.create 64; rep = Hashtbl.create 64; keys = []; freed = Hashtbl.create 16 }

let key uf (ty : I.ty) : string =
  let k = canon ty in
  if not (Hashtbl.mem uf.rep k) then begin
    Hashtbl.replace uf.rep k ty;
    uf.keys <- k :: uf.keys
  end;
  k

let rec find uf k =
  match Hashtbl.find_opt uf.parent k with
  | None -> k
  | Some p ->
      let r = find uf p in
      if r <> p then Hashtbl.replace uf.parent k r;
      r

let union uf t1 t2 =
  let r1 = find uf (key uf t1) and r2 = find uf (key uf t2) in
  if r1 <> r2 then Hashtbl.replace uf.parent r1 r2

(* Pointee types of the pointer slots embedded in [ty] (fields of
   structs, array elements), one structural level of indirection per
   step — the containment edges of the class graph. *)
let rec embedded_pointees (prog : I.program) (ty : I.ty) : I.ty list =
  match ty with
  | I.Tptr (t, _) -> [ t ]
  | I.Tarray (t, _) -> embedded_pointees prog t
  | I.Tcomp tag -> (
      match Hashtbl.find_opt prog.I.comps tag with
      | Some c -> List.concat_map (fun f -> embedded_pointees prog f.I.fty) c.I.cfields
      | None -> [])
  | I.Tvoid | I.Tint _ | I.Tfun _ -> []

let rec type_has_ptr (prog : I.program) (ty : I.ty) : bool =
  match ty with
  | I.Tptr _ -> true
  | I.Tarray (t, _) -> type_has_ptr prog t
  | I.Tcomp tag -> (
      match Hashtbl.find_opt prog.I.comps tag with
      | Some c -> List.exists (fun f -> type_has_ptr prog f.I.fty) c.I.cfields
      | None -> true)
  | I.Tvoid | I.Tint _ | I.Tfun _ -> false

type mark = Shallow of I.ty | Deep of I.ty

(* Resolve deferred marks after all unions: freed classes, with deep
   marks closed transitively over containment edges of every member
   type of each reached class. *)
let seal uf (prog : I.program) (marks : mark list) : unit =
  let members = Hashtbl.create 64 in
  List.iter
    (fun k ->
      let r = find uf k in
      Hashtbl.replace members r (Hashtbl.find uf.rep k :: Option.value (Hashtbl.find_opt members r) ~default:[]))
    uf.keys;
  let mark_root r = Hashtbl.replace uf.freed r () in
  let deep_seen = Hashtbl.create 16 in
  let rec deep ty =
    let r = find uf (key uf ty) in
    if not (Hashtbl.mem deep_seen r) then begin
      Hashtbl.replace deep_seen r ();
      mark_root r;
      List.iter
        (fun member -> List.iter deep (embedded_pointees prog member))
        (Option.value (Hashtbl.find_opt members r) ~default:[ ty ])
    end
  in
  List.iter
    (function Shallow ty -> mark_root (find uf (key uf ty)) | Deep ty -> deep ty)
    marks

let class_freed uf ty = Hashtbl.mem uf.freed (find uf (key uf ty))

(* ---- program scan: cast graph, free marks, forging ---------------- *)

let pointee (ty : I.ty) : I.ty option = match ty with I.Tptr (t, _) -> Some t | _ -> None

(* Can this constant be a refcounted heap address? Chunks live above
   [Mem.heap_base] (> 2 MiB); small and negative constants — null,
   flag values, error pointers — cannot name one. *)
let const_could_be_addr (c : int64) = c >= 4096L

type scan = {
  uf : uf;
  mutable marks : mark list;
  mutable forged : bool;
  allocs : (int, unit) Hashtbl.t; (* vids holding allocator results *)
}

(* Does [e] (casts stripped) read a variable holding a fresh allocator
   result? Such casts type the fresh object rather than moving a value
   between live classes. Cleared per function: vids are only unique
   within one. *)
let is_alloc_val sc (e : I.exp) =
  match (I.strip_ptr_casts e).I.e with
  | I.Elval (I.Lvar v, []) -> Hashtbl.mem sc.allocs v.I.vid
  | _ -> false

(* Walk an expression: every ptr-to-ptr cast merges the two pointee
   classes; a non-provably-harmless int-to-ptr cast sets [forged].
   [skip_top] suppresses class merging for the outermost cast chain
   (used for allocator results and known-extern arguments, where the
   cast is calling-convention adaptation, not value flow between
   live classes). *)
let rec scan_exp sc ?(skip_top = false) (e : I.exp) : unit =
  match e.I.e with
  | I.Ecast (ti, inner) ->
      (match ti with
      | I.Tptr (t1, _) ->
          if I.is_pointer inner.I.ety then begin
            if (not skip_top) && not (is_alloc_val sc inner) then
              match pointee inner.I.ety with
              | Some t2 -> union sc.uf t1 t2
              | None -> ()
          end
          else (
            match inner.I.e with
            | I.Econst c when not (const_could_be_addr c) -> ()
            | _ -> sc.forged <- true)
      | _ -> ());
      scan_exp sc ~skip_top inner
  | I.Econst _ | I.Estr _ | I.Efun _ | I.Eself_field _ -> ()
  | I.Elval lv -> scan_lval sc lv
  | I.Eaddrof lv | I.Estartof lv -> scan_lval sc lv
  | I.Eunop (_, e1) -> scan_exp sc e1
  | I.Ebinop (_, e1, e2) ->
      scan_exp sc e1;
      scan_exp sc e2
  | I.Econd (c, a, b) ->
      scan_exp sc c;
      scan_exp sc a;
      scan_exp sc b

and scan_lval sc ((host, offs) : I.lval) : unit =
  (match host with I.Lmem e -> scan_exp sc e | I.Lvar _ -> ());
  List.iter (function I.Oindex e -> scan_exp sc e | I.Ofield _ -> ()) offs

let stripped_pointee (e : I.exp) : I.ty option = pointee (I.strip_ptr_casts e).I.ety

let known_extern f =
  List.mem f I.allocators
  || Summary.free_extern f <> None
  || List.mem f Summary.benign_externs
  || f = "request_irq"

let scan_instr sc (prog : I.program) (i : I.instr) : unit =
  match i with
  | I.Iset (lv, e) | I.Irc_update (lv, e) ->
      scan_lval sc lv;
      scan_exp sc e
  | I.Icheck _ -> List.iter (scan_exp sc) (I.exps_of_instr i)
  | I.Irc_inc e | I.Irc_dec e -> scan_exp sc e
  | I.Icall (ret, target, args) -> (
      (match ret with Some lv -> scan_lval sc lv | None -> ());
      match target with
      | I.Direct f when known_extern f -> (
          List.iter (fun a -> scan_exp sc ~skip_top:true a) args;
          match Summary.free_extern f with
          | Some idxs ->
              (* Shallow: the freed object's own counts get read; the
                 objects it references only get decremented. *)
              List.iter
                (fun idx ->
                  match Option.bind (List.nth_opt args idx) stripped_pointee with
                  | Some t -> sc.marks <- Shallow t :: sc.marks
                  | None -> ())
                idxs
          | None -> (
              match (f, args) with
              | ("memcpy" | "memmove" | "memcpy_t" | "copy_from_user" | "copy_to_user"), dst :: src :: _
                -> (
                  match (stripped_pointee dst, stripped_pointee src) with
                  | Some td, Some ts when I.eq_erased td ts -> ()
                  | td, ts ->
                      (* Type-punning copy: pointer slots on either
                         side may now hold bytes of the wrong class. *)
                      List.iter
                        (fun t ->
                          match t with Some t -> sc.marks <- Deep t :: sc.marks | None -> ())
                        [ td; ts ])
              | ("memset" | "memset_t"), dst :: _ -> (
                  match stripped_pointee dst with
                  | Some t when type_has_ptr prog t -> sc.marks <- Deep t :: sc.marks
                  | _ -> ())
              | _ -> ()))
      | I.Direct f -> (
          match I.find_fun prog f with
          | Some fd when not fd.I.fextern ->
              List.iter (scan_exp sc) args;
              (* Belt and braces: unify actuals with formals and the
                 result slot with the return type even where no cast
                 was needed. *)
              List.iteri
                (fun idx formal ->
                  match
                    ( pointee formal.I.vty,
                      Option.bind (List.nth_opt args idx) (fun a -> pointee a.I.ety) )
                  with
                  | Some tf, Some ta -> union sc.uf tf ta
                  | _ -> ())
                fd.I.sformals;
              (match (ret, pointee fd.I.fret) with
              | Some lv, Some tr -> (
                  match pointee (I.lval_type lv) with
                  | Some ts when not (List.mem f I.allocators) -> union sc.uf ts tr
                  | _ -> ())
              | _ -> ())
          | _ ->
              (* Unresolved extern: could stash, traverse or free
                 anything reachable from its pointer arguments. *)
              List.iter (fun a -> scan_exp sc ~skip_top:true a) args;
              List.iter
                (fun a ->
                  match stripped_pointee a with
                  | Some t -> sc.marks <- Deep t :: sc.marks
                  | None -> ())
                args;
              (match ret with
              | Some lv -> (
                  match pointee (I.lval_type lv) with
                  | Some t -> sc.marks <- Deep t :: sc.marks
                  | None -> ())
              | None -> ()))
      | I.Indirect fe ->
          scan_exp sc fe;
          List.iter (scan_exp sc) args;
          List.iter
            (fun a ->
              match stripped_pointee a with
              | Some t -> sc.marks <- Deep t :: sc.marks
              | None -> ())
            args;
          (match ret with
          | Some lv -> (
              match pointee (I.lval_type lv) with
              | Some t -> sc.marks <- Deep t :: sc.marks
              | None -> ())
          | None -> ()))

let scan_fundec sc (prog : I.program) (fd : I.fundec) : unit =
  Hashtbl.reset sc.allocs;
  I.iter_stmts
    (fun s ->
      match s.I.sk with
      | I.Sinstr (I.Icall (Some (I.Lvar v, []), I.Direct f, _))
        when List.mem f I.allocators && not v.I.vglob ->
          Hashtbl.replace sc.allocs v.I.vid ()
      | _ -> ())
    fd.I.fbody;
  I.iter_stmts
    (fun s ->
      match s.I.sk with
      | I.Sinstr i -> scan_instr sc prog i
      | I.Sif (c, _, _) | I.Swhile (c, _, _) | I.Sdowhile (_, c) | I.Sswitch (c, _) ->
          scan_exp sc c
      | I.Sreturn (Some e) -> scan_exp sc e
      | _ -> ())
    fd.I.fbody

(* ---- R3: publish/retire windows ----------------------------------- *)

type gwin = {
  mutable writes : I.instr list; (* every write to the global *)
  mutable acc : I.instr list; (* writes accounted by matched windows *)
  mutable upds : I.instr list; (* window Irc_updates, pending validity *)
}

let g_slot gid (lv : I.lval) =
  match lv with I.Lvar v, [] -> v.I.vid = gid | _ -> false

let writes_any_candidate cands (lv : I.lval) =
  match lv with I.Lvar v, _ -> Hashtbl.mem cands v.I.vid | _ -> false

(* Nothing in the window may free an object or run guest code; traps
   merely end the run before any count is read again. *)
let safe_mid_call summaries gid ret target =
  (match ret with Some lv -> not (g_slot gid lv) | None -> true)
  && (match target with I.Direct "raise_irq" -> false | _ -> true)
  && (match Summary.callee_info summaries target with
     | Summary.Alloc | Summary.Benign | Summary.Captures _ -> true
     | Summary.Known s ->
         (not s.Summary.may_free)
         && (not s.Summary.writes_glob_ptr)
         && not s.Summary.runs_handlers
     | Summary.Free _ | Summary.Unknown -> false)

let safe_mid_stmt summaries gid (s : I.stmt) =
  match s.I.sk with
  | I.Sinstr (I.Iset (lv, _)) -> not (g_slot gid lv)
  | I.Sinstr (I.Irc_update (lv, _)) -> not (g_slot gid lv)
  | I.Sinstr (I.Icheck _ | I.Irc_inc _ | I.Irc_dec _) -> true
  | I.Sinstr (I.Icall (ret, target, _)) -> safe_mid_call summaries gid ret target
  | _ -> false

let rec iter_blocks f (b : I.block) =
  f b;
  List.iter
    (fun (s : I.stmt) ->
      match s.I.sk with
      | I.Sif (_, b1, b2) | I.Swhile (_, b1, b2) ->
          iter_blocks f b1;
          iter_blocks f b2
      | I.Sdowhile (b1, _) -> iter_blocks f b1
      | I.Sswitch (_, cases) -> List.iter (fun c -> iter_blocks f c.I.cbody) cases
      | I.Sblock b1 | I.Sdelayed b1 | I.Strusted b1 -> iter_blocks f b1
      | _ -> ())
    b

let compute_windows (summaries : Summary.summaries) (prog : I.program) :
    (int, gwin) Hashtbl.t =
  let cands : (int, gwin) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ((v : I.varinfo), init) ->
      let zero_init =
        match init with
        | None -> true
        | Some (I.Gi_exp e) -> Summary.is_null e
        | Some (I.Gi_list _) -> false
      in
      match v.I.vty with
      | I.Tptr _ when (not v.I.vaddrof) && zero_init ->
          Hashtbl.replace cands v.I.vid { writes = []; acc = []; upds = [] }
      | _ -> ())
    prog.I.globals;
  (* Every write to a candidate, program-wide. *)
  List.iter
    (fun (fd : I.fundec) ->
      if not fd.I.fextern then
        I.iter_instrs
          (fun i ->
            let lv =
              match i with
              | I.Iset (lv, _) -> Some lv
              | I.Icall (Some lv, _, _) -> Some lv
              | _ -> None
            in
            match lv with
            | Some ((I.Lvar v, _) as lv1) when writes_any_candidate cands lv1 ->
                let g = Hashtbl.find cands v.I.vid in
                g.writes <- i :: g.writes
            | _ -> ())
          fd.I.fbody)
    prog.I.funcs;
  (* Window matching over straight-line statement lists. *)
  let match_block (b : I.block) =
    let rec walk (stmts : I.block) =
      match stmts with
      | ({ I.sk = I.Sinstr (I.Irc_update ((I.Lvar g, []), e) as pub_upd); _ } as _s1)
        :: ({ I.sk = I.Sinstr (I.Iset ((I.Lvar g2, []), e') as pub_set); _ } :: mid as after_pub)
        when g.I.vid = g2.I.vid && Hashtbl.mem cands g.I.vid && e == e'
             && not (Summary.is_null e) -> (
          let rec scan_mid (stmts : I.block) =
            match stmts with
            | { I.sk = I.Sinstr (I.Irc_update ((I.Lvar ga, []), z) as ret_upd); _ }
              :: { I.sk = I.Sinstr (I.Iset ((I.Lvar gb, []), z') as ret_set); _ }
              :: rest
              when ga.I.vid = g.I.vid && gb.I.vid = g.I.vid && Summary.is_null z
                   && Summary.is_null z' ->
                Some (ret_upd, ret_set, rest)
            | s :: rest when safe_mid_stmt summaries g.I.vid s -> scan_mid rest
            | _ -> None
          in
          match scan_mid mid with
          | Some (ret_upd, ret_set, rest) ->
              let gw = Hashtbl.find cands g.I.vid in
              gw.upds <- pub_upd :: ret_upd :: gw.upds;
              gw.acc <- pub_set :: ret_set :: gw.acc;
              walk rest
          | None -> walk after_pub)
      | _ :: rest -> walk rest
      | [] -> ()
    in
    walk b
  in
  List.iter
    (fun (fd : I.fundec) -> if not fd.I.fextern then iter_blocks match_block fd.I.fbody)
    prog.I.funcs;
  cands

(* Window updates of globals whose every write is window-accounted. *)
let window_removable (cands : (int, gwin) Hashtbl.t) : I.instr list =
  Hashtbl.fold
    (fun _gid gw acc ->
      if List.for_all (fun w -> List.memq w gw.acc) gw.writes then gw.upds @ acc else acc)
    cands []

(* Discharge an already ccount-instrumented program, in place. *)
let run ?summaries (prog : I.program) : stats =
  let summaries = match summaries with Some s -> s | None -> Summary.compute prog in
  let sc = { uf = uf_create (); marks = []; forged = false; allocs = Hashtbl.create 8 } in
  List.iter (fun fd -> if not fd.I.fextern then scan_fundec sc prog fd) prog.I.funcs;
  let rec scan_init = function
    | I.Gi_exp e -> scan_exp sc e
    | I.Gi_list l -> List.iter scan_init l
  in
  List.iter
    (fun (_, init) -> match init with Some gi -> scan_init gi | None -> ())
    prog.I.globals;
  seal sc.uf prog sc.marks;
  let win_removable =
    if sc.forged then [] else window_removable (compute_windows summaries prog)
  in
  let stats = new_stats () in
  stats.forged <- sc.forged;
  List.iter
    (fun (fd : I.fundec) ->
      if not fd.I.fextern then begin
        let removable = ref [] in
        I.iter_instrs
          (fun i ->
            match i with
            | I.Irc_update (lv, _) -> (
                stats.updates_seen <- stats.updates_seen + 1;
                match fst lv with
                | I.Lvar v when not v.I.vglob ->
                    stats.stack_host <- stats.stack_host + 1;
                    removable := i :: !removable
                | _ -> (
                    match pointee (I.lval_type lv) with
                    | Some t when (not sc.forged) && not (class_freed sc.uf t) ->
                        stats.never_freed <- stats.never_freed + 1;
                        removable := i :: !removable
                    | _ ->
                        if List.memq i win_removable then begin
                          stats.publish_window <- stats.publish_window + 1;
                          removable := i :: !removable
                        end))
            | _ -> ())
          fd.I.fbody;
        if !removable <> [] then fd.I.fbody <- I.remove_instrs !removable fd.I.fbody
      end)
    prog.I.funcs;
  stats

let render_stats (s : stats) : string =
  Printf.sprintf
    "refsafe: discharged %d of %d rc updates (stack-host %d, never-freed %d, \
     publish-window %d%s)\n"
    (discharged s) s.updates_seen s.stack_host s.never_freed s.publish_window
    (if s.forged then "; pointer forging detected: class/window rules disabled" else "")
