(* Path-sensitive ownership tracking: the static refcount-imbalance
   checker behind the `refsafe` analysis.

   Per function, a forward dataflow problem over {!Dataflow.Cfg} maps
   each tracked pointer local to an abstract ownership state:

     Null            definitely null
     Owned           holds a live allocation this frame must release
     OwnedOrNull     allocator result before the null test
     Freed           target released (further puts are double puts)
     Published g     stored into global [g]; the global holds the
                     reference until the slot is retired
     Top             anything (shared, unknown, or merged)

   Absent variables are bottom (never assigned on this path). The
   state map joins pointwise; [Null]/[Owned]/[OwnedOrNull] merge to
   [OwnedOrNull] (all still "this frame may own it"), everything else
   disagreeing merges to [Top], which silences diagnostics — the
   checker only reports what holds on *every* path to the program
   point, keeping it quiet on the clean generated corpus (the fuzz
   oracle's false-alarm rule enforces exactly that).

   Reported imbalances:
   - Double_put          put of a [Freed] pointer
   - Put_on_error_path   put of a pointer still [Published] in a global
   - Missing_put         [Owned*] live at a `return <negative const>`
   - Leak                [Owned*] live at any other return

   Functions that cast between pointers and integers are skipped
   wholesale (no findings): pointer values can flow through integer
   variables there and per-variable tracking would misattribute
   ownership. *)

module I = Kc.Ir
module Cfg = Dataflow.Cfg

type kind = Double_put | Put_on_error_path | Missing_put | Leak

let kind_to_string = function
  | Double_put -> "double-put"
  | Put_on_error_path -> "put-on-error-path"
  | Missing_put -> "missing-put"
  | Leak -> "ref-leak"

type finding = {
  ffn : string;
  fvar : string;
  fkind : kind;
  floc : Kc.Loc.t;
  fmsg : string;
}

type aval = Null | Owned | OwnedOrNull | Freed | Published of int | Top

module VM = Map.Make (Int)

let join_v a b =
  if a = b then a
  else
    match (a, b) with
    | (Null | Owned | OwnedOrNull), (Null | Owned | OwnedOrNull) -> OwnedOrNull
    | _ -> Top

module L = struct
  type t = aval VM.t

  let bottom = VM.empty
  let equal = VM.equal ( = )
  let join = VM.union (fun _ a b -> Some (join_v a b))

  (* The lattice is finite-height (per-variable chains of length <= 3
     over finitely many locals), so no real widening is needed; the
     widening solver is used for its per-edge refinement hook. *)
  let widen = join
  let narrow _old next = next
end

module W = Dataflow.Worklist.Make_widening (L)

(* Tracked: pointer locals (temps included) whose value the function
   fully mediates — no address taken, not a formal, not a global. *)
let tracked (v : I.varinfo) =
  I.is_pointer v.I.vty && (not v.I.vglob) && (not v.I.vparam) && not v.I.vaddrof

(* The tracked variable an expression directly denotes, casts
   stripped. *)
let direct_var (e : I.exp) : I.varinfo option =
  match (I.strip_ptr_casts e).I.e with
  | I.Elval (I.Lvar v, []) when tracked v -> Some v
  | _ -> None

let is_global_ptr_slot (lv : I.lval) =
  match lv with
  | I.Lvar g, [] -> g.I.vglob && I.is_pointer g.I.vty && not g.I.vaddrof
  | _ -> false

(* Is [e] a (possibly cast/negated) negative integer constant — the
   idiomatic kernel error return? *)
let rec is_negative_const (e : I.exp) : bool =
  match e.I.e with
  | I.Econst c -> c < 0L
  | I.Eunop (Kc.Ast.Neg, { I.e = I.Econst c; _ }) -> c > 0L
  | I.Ecast (_, e1) | I.Eunop (Kc.Ast.Neg, { I.e = I.Ecast (_, e1); _ }) -> is_negative_const e1
  | _ -> false

(* Release every variable published into global [gid]: the slot is
   being overwritten, so the global no longer holds the reference. *)
let release_published gid st =
  VM.map (function Published g when g = gid -> OwnedOrNull | v -> v) st

(* Transfer of one instruction. [emit] is invoked (second pass only)
   for imbalances observed at this instruction. *)
let step (summaries : Summary.summaries)
    ~(emit : kind -> I.varinfo -> unit) (i : I.instr) (st : L.t) : L.t =
  let kill_roots e st =
    List.fold_left
      (fun st v -> if tracked v then VM.add v.I.vid Top st else st)
      st (Summary.var_roots e)
  in
  match i with
  | I.Iset ((I.Lvar v, []) as _lv, e) when tracked v -> (
      if Summary.is_null e then VM.add v.I.vid Null st
      else
        match direct_var e with
        | Some u when u.I.vtemp && u.I.vid <> v.I.vid ->
            (* Elaboration routes call results through a one-shot temp;
               moving the state keeps allocator results precise. *)
            let uv = Option.value (VM.find_opt u.I.vid st) ~default:Top in
            VM.add v.I.vid uv (VM.add u.I.vid Top st)
        | Some u -> VM.add v.I.vid Top (VM.add u.I.vid Top st)
        | None -> VM.add v.I.vid Top st)
  | I.Iset (lv, e) when is_global_ptr_slot lv ->
      let gid = (match fst lv with I.Lvar g -> g.I.vid | _ -> assert false) in
      let st = release_published gid st in
      if Summary.is_null e then st
      else (
        match direct_var e with
        | Some u -> (
            match VM.find_opt u.I.vid st with
            | Some (Owned | OwnedOrNull) -> VM.add u.I.vid (Published gid) st
            | _ -> VM.add u.I.vid Top st)
        | None -> kill_roots e st)
  | I.Iset (lv, e) ->
      (* Any other store. Using a tracked pointer as an *address* (or
         reading through it) duplicates nothing; its ownership only
         changes when the pointer *value* is stored into a slot the
         function doesn't mediate — and since functions with ptr<->int
         casts are skipped wholesale, a pointer value can only land in
         a pointer-typed slot. *)
      if I.is_pointer (I.lval_type lv) then kill_roots e st else st
  | I.Icall (ret, target, args) -> (
      let info = Summary.callee_info summaries target in
      let free_arg st arg =
        List.fold_left
          (fun st u ->
            if not (tracked u) then st
            else
              match VM.find_opt u.I.vid st with
              | Some (Owned | OwnedOrNull) -> VM.add u.I.vid Freed st
              | Some Freed ->
                  emit Double_put u;
                  st
              | Some (Published _) ->
                  emit Put_on_error_path u;
                  VM.add u.I.vid Freed st
              | Some Null -> st
              | Some Top | None -> st)
          st (Summary.var_roots arg)
      in
      let st =
        match info with
        | Summary.Alloc | Summary.Benign -> st
        | Summary.Free idxs ->
            List.fold_left
              (fun st i1 ->
                match List.nth_opt args i1 with Some a -> free_arg st a | None -> st)
              st idxs
        | Summary.Captures idxs ->
            List.fold_left
              (fun st i1 ->
                match List.nth_opt args i1 with Some a -> kill_roots a st | None -> st)
              st idxs
        | Summary.Known s ->
            let st =
              List.fold_left
                (fun st i1 ->
                  match List.nth_opt args i1 with Some a -> free_arg st a | None -> st)
                st s.Summary.freed_params
            in
            List.fold_left
              (fun st i1 ->
                match List.nth_opt args i1 with Some a -> kill_roots a st | None -> st)
              st s.Summary.escaping_params
        | Summary.Unknown -> List.fold_left (fun st a -> kill_roots a st) st args
      in
      match ret with
      | Some (I.Lvar v, []) when tracked v ->
          let owned_result =
            match info with
            | Summary.Alloc -> true
            | Summary.Known s ->
                s.Summary.returns_alloc
                && (not s.Summary.returns_other)
                && s.Summary.returns_param = []
            | _ -> false
          in
          VM.add v.I.vid (if owned_result then OwnedOrNull else Top) st
      | Some lv when is_global_ptr_slot lv ->
          let gid = (match fst lv with I.Lvar g -> g.I.vid | _ -> assert false) in
          release_published gid st
      | _ -> st)
  | I.Icheck _ | I.Irc_inc _ | I.Irc_dec _ | I.Irc_update _ -> st

(* ---- branch refinement -------------------------------------------- *)

(* Decompose a branch condition into "tests tracked variable [v]
   against null"; the bool is true when the condition being *true*
   means [v] is non-null.  Handles the idiomatic guards
   `if (p)`, `if (!p)`, `if (p != 0)`, `if (p == 0)` through casts. *)
let rec cond_var (c : I.exp) : (I.varinfo * bool) option =
  match (I.strip_ptr_casts c).I.e with
  | I.Elval (I.Lvar v, []) when tracked v -> Some (v, true)
  | I.Eunop (Kc.Ast.Lognot, e1) ->
      Option.map (fun (v, nn) -> (v, not nn)) (cond_var e1)
  | I.Ebinop ((Kc.Ast.Ne | Kc.Ast.Eq) as op, a, b) -> (
      let v =
        if Summary.is_null b then direct_var a
        else if Summary.is_null a then direct_var b
        else None
      in
      match v with Some v -> Some (v, op = Kc.Ast.Ne) | None -> None)
  | _ -> None

(* Refine the state flowing along one CFG edge: after `if (p != 0)`,
   an allocator result is [Owned] on the then-edge and [Null] on the
   else-edge.  Only the sound OwnedOrNull split is applied; other
   states pass through untouched. *)
let refine_edge (n : Cfg.node) (idx : int) (st : L.t) : L.t =
  match n.Cfg.term with
  | Cfg.Tcond c -> (
      match cond_var c with
      | Some (v, true_means_nonnull) -> (
          (* Successor 0 is the then-edge, 1 the else-edge. *)
          let nonnull = if idx = 0 then true_means_nonnull else not true_means_nonnull in
          match VM.find_opt v.I.vid st with
          | Some OwnedOrNull -> VM.add v.I.vid (if nonnull then Owned else Null) st
          | _ -> st)
      | None -> st)
  | _ -> st

(* ---- driver ------------------------------------------------------- *)

let no_emit _ _ = ()

let check ?cfg_of (summaries : Summary.summaries) (fd : I.fundec) : finding list =
  if fd.I.fextern then []
  else if Summary.has_ptr_int_cast fd then []
  else begin
    let cfg = match cfg_of with Some f -> f fd | None -> Cfg.build fd in
    let transfer ?(emit = no_emit) (n : Cfg.node) st =
      List.fold_left (fun st (i, _loc) -> step summaries ~emit i st) st n.Cfg.instrs
    in
    let widen_at = Array.make (Cfg.n_nodes cfg) false in
    let r =
      W.solve cfg ~narrow_passes:0 ~widen_at ~init:VM.empty
        ~transfer:(fun n st -> transfer n st)
        ~edge:refine_edge
    in
    let findings = ref [] in
    let add fkind (v : I.varinfo) floc =
      let ffn = fd.I.fname in
      let fmsg =
        match fkind with
        | Double_put -> Printf.sprintf "%s: double put of %s" ffn v.I.vname
        | Put_on_error_path ->
            Printf.sprintf "%s: put on error path: %s is still published in a global" ffn
              v.I.vname
        | Missing_put -> Printf.sprintf "%s: missing put of %s on error return" ffn v.I.vname
        | Leak -> Printf.sprintf "%s: leak of %s on return" ffn v.I.vname
      in
      findings := { ffn; fvar = v.I.vname; fkind; floc; fmsg } :: !findings
    in
    let var_by_id =
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun v -> if tracked v then Hashtbl.replace tbl v.I.vid v)
        (fd.I.sformals @ fd.I.slocals);
      tbl
    in
    (* Second pass: replay each node from its fixpoint entry state,
       emitting instruction-level imbalances, then audit returns. *)
    Array.iter
      (fun (n : Cfg.node) ->
        let last_loc = ref fd.I.floc in
        let st =
          List.fold_left
            (fun st (i, loc) ->
              last_loc := loc;
              step summaries ~emit:(fun k v -> add k v loc) i st)
            r.W.before.(n.Cfg.nid) n.Cfg.instrs
        in
        match n.Cfg.term with
        | Cfg.Treturn ret when List.mem cfg.Cfg.exit_ n.Cfg.succs ->
            let ret_roots =
              match ret with
              | Some e -> List.map (fun v -> v.I.vid) (Summary.var_roots e)
              | None -> []
            in
            let err_path = match ret with Some e -> is_negative_const e | None -> false in
            VM.iter
              (fun vid av ->
                match av with
                | Owned | OwnedOrNull when not (List.mem vid ret_roots) -> (
                    match Hashtbl.find_opt var_by_id vid with
                    | Some v ->
                        (* Temps are dead after their single read; a
                           live allocator result always lands in a
                           named local first. *)
                        if not v.I.vtemp then
                          add (if err_path then Missing_put else Leak) v !last_loc
                    | None -> ())
                | _ -> ())
              st
        | _ -> ())
      cfg.Cfg.nodes;
    (* Deterministic order + dedupe across the (possibly replayed)
       node walk. *)
    !findings
    |> List.sort_uniq (fun a b ->
           compare (a.fmsg, a.floc, a.fkind) (b.fmsg, b.floc, b.fkind))
  end

let check_program ?cfg_of (summaries : Summary.summaries) (prog : I.program) : finding list =
  prog.I.funcs
  |> List.filter (fun fd -> not fd.I.fextern)
  |> List.concat_map (fun fd -> check ?cfg_of summaries fd)
