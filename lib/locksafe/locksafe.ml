(* Lock safety (paper §3.1, first proposed analysis).

   Two checks over the whole program:

   1. deadlock freedom by consistent lock order: build the
      "acquired-while-holding" graph over named locks; a cycle means
      two code paths take the same pair of locks in opposite orders;
   2. the Linux-specific invariant that a spinlock taken in interrupt
      context is never taken in process context with interrupts
      enabled (otherwise the irq can spin on a lock its own CPU
      holds).

   Locks are named: a lock is a global [long] whose address flows into
   [spin_lock] / [spin_lock_irqsave], exactly the paper's "light
   annotations will be used to name the locks" (the global's name is
   the annotation). [__acquires]/[__releases] function annotations
   summarize wrappers. *)

module I = Kc.Ir
module SS = Set.Make (String)

type acquire = {
  a_lock : string;
  a_in : string; (* function *)
  a_loc : Kc.Loc.t;
  a_irqsave : bool; (* taken with interrupts disabled *)
  a_held : SS.t; (* locks already held at this acquire *)
  a_in_irq : bool; (* reachable in interrupt context *)
}

type order_edge = { from_lock : string; to_lock : string; where : Kc.Loc.t; in_fn : string }

type report = {
  locks : string list;
  acquires : acquire list;
  order_edges : order_edge list;
  deadlock_cycles : (string * string) list; (* pairs locked in both orders *)
  irq_unsafe : (string * acquire) list; (* lock, offending process-context acquire *)
}

let lock_arg_name (e : I.exp) : string option =
  match e.I.e with
  | I.Eaddrof (I.Lvar v, []) when v.I.vglob -> Some v.I.vname
  | I.Eaddrof ((I.Lvar v, offs)) when v.I.vglob -> (
      (* &some_global.field_lock names the field path *)
      match List.rev offs with
      | I.Ofield f :: _ -> Some (v.I.vname ^ "." ^ f.I.fname)
      | _ -> Some v.I.vname)
  | _ -> None

let is_lock_fn = function "spin_lock" | "spin_lock_irqsave" -> true | _ -> false
let is_unlock_fn = function "spin_unlock" | "spin_unlock_irqrestore" -> true | _ -> false

(* Function-level lock summaries from __acquires/__releases. *)
let annot_summary (fd : I.fundec) : string list * string list =
  List.fold_left
    (fun (acq, rel) a ->
      match a with
      | Kc.Ast.Facquires l -> (l :: acq, rel)
      | Kc.Ast.Freleases l -> (acq, l :: rel)
      | _ -> (acq, rel))
    ([], []) fd.I.fannots

(* Walk one function with a held-set, collecting acquires and edges.
   [entry_held] are locks held when the function is entered;
   [in_irq] marks interrupt-context reachability. *)
let scan_function (prog : I.program) (fd : I.fundec) ~(entry_held : SS.t) ~(in_irq : bool)
    ~(emit : acquire -> unit) ~(edge : order_edge -> unit) :
    (string * SS.t) list (* callsites: callee, held set *) =
  let sites = ref [] in
  let rec walk_block held (b : I.block) : SS.t = List.fold_left walk_stmt held b
  and walk_stmt held (s : I.stmt) : SS.t =
    match s.I.sk with
    | I.Sinstr (I.Icall (_, I.Direct name, args)) when is_lock_fn name -> (
        match args with
        | a :: _ -> (
            match lock_arg_name a with
            | Some lock ->
                emit
                  {
                    a_lock = lock;
                    a_in = fd.I.fname;
                    a_loc = s.I.sloc;
                    a_irqsave = name = "spin_lock_irqsave";
                    a_held = held;
                    a_in_irq = in_irq;
                  };
                SS.iter
                  (fun h ->
                    if h <> lock then
                      edge { from_lock = h; to_lock = lock; where = s.I.sloc; in_fn = fd.I.fname })
                  held;
                SS.add lock held
            | None -> held)
        | [] -> held)
    | I.Sinstr (I.Icall (_, I.Direct name, args)) when is_unlock_fn name -> (
        match args with
        | a :: _ -> (
            match lock_arg_name a with Some lock -> SS.remove lock held | None -> held)
        | [] -> held)
    | I.Sinstr (I.Icall (_, I.Direct name, _)) -> (
        sites := (name, held) :: !sites;
        (* Apply the callee's __acquires/__releases summary. *)
        match I.find_fun prog name with
        | Some callee ->
            let acq, rel = annot_summary callee in
            let held = List.fold_left (fun h l -> SS.add l h) held acq in
            List.fold_left (fun h l -> SS.remove l h) held rel
        | None -> held)
    | I.Sinstr _ -> held
    | I.Sif (_, b1, b2) ->
        let h1 = walk_block held b1 and h2 = walk_block held b2 in
        SS.union h1 h2
    | I.Swhile (_, body, step) -> SS.union held (walk_block held (body @ step))
    | I.Sdowhile (body, _) -> SS.union held (walk_block held body)
    | I.Sswitch (_, cases) ->
        List.fold_left (fun acc (c : I.case) -> SS.union acc (walk_block held c.I.cbody)) held cases
    | I.Sbreak | I.Scontinue | I.Sreturn _ -> held
    | I.Sblock b | I.Sdelayed b | I.Strusted b -> walk_block held b
  in
  ignore (walk_block entry_held fd.I.fbody);
  !sites

let analyze ~handlers (prog : I.program) : report =
  (* Fixpoint: (held-at-entry, irq-reachable) per function. *)
  let entry_held : (string, SS.t) Hashtbl.t = Hashtbl.create 64 in
  let irq_reach = ref (SS.union handlers SS.empty) in
  let get_held f = match Hashtbl.find_opt entry_held f with Some s -> s | None -> SS.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (fd : I.fundec) ->
        let in_irq = SS.mem fd.I.fname !irq_reach in
        let sites =
          scan_function prog fd ~entry_held:(get_held fd.I.fname) ~in_irq
            ~emit:(fun _ -> ())
            ~edge:(fun _ -> ())
        in
        List.iter
          (fun (callee, held) ->
            match I.find_fun prog callee with
            | Some cfd when not cfd.I.fextern ->
                let cur = get_held callee in
                (* Meet: a lock counts as held at entry only if held on
                   some path; for bug-finding we take the union. *)
                let next = SS.union cur held in
                if not (SS.equal cur next) then begin
                  Hashtbl.replace entry_held callee next;
                  changed := true
                end;
                if in_irq && not (SS.mem callee !irq_reach) then begin
                  irq_reach := SS.add callee !irq_reach;
                  changed := true
                end
            | _ -> ())
          sites)
      prog.I.funcs
  done;
  (* Final pass collecting acquires and order edges. *)
  let acquires = ref [] and edges = ref [] in
  List.iter
    (fun (fd : I.fundec) ->
      ignore
        (scan_function prog fd ~entry_held:(get_held fd.I.fname)
           ~in_irq:(SS.mem fd.I.fname !irq_reach)
           ~emit:(fun a -> acquires := a :: !acquires)
           ~edge:(fun e -> edges := e :: !edges)))
    prog.I.funcs;
  let acquires = List.rev !acquires and edges = List.rev !edges in
  (* Deadlock: pair (a, b) with edges both ways. *)
  let edge_set =
    List.fold_left (fun s e -> SS.add (e.from_lock ^ ">" ^ e.to_lock) s) SS.empty edges
  in
  let cycles =
    List.sort_uniq compare
      (List.filter_map
         (fun e ->
           if e.from_lock < e.to_lock && SS.mem (e.to_lock ^ ">" ^ e.from_lock) edge_set then
             Some (e.from_lock, e.to_lock)
           else if e.to_lock < e.from_lock && SS.mem (e.to_lock ^ ">" ^ e.from_lock) edge_set then
             Some (e.to_lock, e.from_lock)
           else None)
         edges)
  in
  (* IRQ invariant: a lock acquired in irq context must only ever be
     acquired with interrupts disabled in process context. *)
  let irq_locks =
    List.fold_left (fun s a -> if a.a_in_irq then SS.add a.a_lock s else s) SS.empty acquires
  in
  let irq_unsafe =
    List.filter_map
      (fun a ->
        if (not a.a_in_irq) && (not a.a_irqsave) && SS.mem a.a_lock irq_locks then
          Some (a.a_lock, a)
        else None)
      acquires
  in
  let locks =
    List.sort_uniq compare (List.map (fun a -> a.a_lock) acquires)
  in
  { locks; acquires; order_edges = edges; deadlock_cycles = cycles; irq_unsafe }

let pp fmt (r : report) =
  Format.fprintf fmt
    "locksafe: %d locks, %d acquires, %d order edges, %d deadlock pairs, %d irq-unsafe acquires"
    (List.length r.locks) (List.length r.acquires) (List.length r.order_edges)
    (List.length r.deadlock_cycles) (List.length r.irq_unsafe)
