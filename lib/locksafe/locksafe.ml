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
   the annotation). The held set, joined by union, is a {!Dataflow.Fsm}
   state over each function's CFG, solved once from no locks; the
   locks held at its call sites are added after. A defined callee
   applies its computed effect; [__acquires]/[__releases] summarize
   externs. *)

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
  | I.Eaddrof ((I.Lvar v, offs)) when v.I.vglob -> (
      (* &some_global.field_lock names the field path *)
      match List.rev offs with
      | I.Ofield f :: _ -> Some (v.I.vname ^ "." ^ f.I.fname)
      | _ -> Some v.I.vname)
  | _ -> None

let is_lock_fn = function "spin_lock" | "spin_lock_irqsave" -> true | _ -> false
let is_unlock_fn = function "spin_unlock" | "spin_unlock_irqrestore" -> true | _ -> false

(* Locks held since entry, and locks released on every path; [None] where not reached. *)
type locks = { held : SS.t; rel : SS.t }

module F = Dataflow.Fsm.Make (struct
  type t = locks option

  let bottom = None and entry = Some { held = SS.empty; rel = SS.empty }
  let equal = Option.equal (fun a b -> SS.equal a.held b.held && SS.equal a.rel b.rel)

  let join a b =
    match (a, b) with
    | Some a, Some b -> Some { held = SS.union a.held b.held; rel = SS.inter a.rel b.rel }
    | None, s | s, None -> s
end)

let locks args = SS.of_list (Option.to_list (Option.bind (List.nth_opt args 0) lock_arg_name))

(* A call's effect: it releases [rel], then acquires [acq]. *)
let apply s ~acq ~rel = { held = SS.union (SS.diff s.held rel) acq; rel = SS.union s.rel rel }

(* A defined callee applies its computed effect; an extern is a lock
   primitive or carries [__acquires]/[__releases] annotations. *)
let step prog ~effect instr s =
  match (instr, s) with
  | I.Icall (_, I.Direct name, args), Some st -> (
      match effect name with
      | Some e -> Option.fold ~none:s ~some:(fun e -> Some (apply st ~acq:e.held ~rel:e.rel)) e
      | None when is_lock_fn name -> Some (apply st ~acq:(locks args) ~rel:SS.empty)
      | None when is_unlock_fn name -> Some (apply st ~acq:SS.empty ~rel:(locks args))
      | None -> (
          match I.find_fun prog name with
          | Some { I.fannots = _ :: _ as annots; _ } ->
              let named f = SS.of_list (List.filter_map f annots) in
              Some
                (apply st
                   ~acq:(named (function Kc.Ast.Facquires l -> Some l | _ -> None))
                   ~rel:(named (function Kc.Ast.Freleases l -> Some l | _ -> None)))
          | _ -> s))
  | _ -> s

let analyze ?(cfg_of = Dataflow.Cfg.build) ~handlers (prog : I.program) : report =
  let solved = F.solve ~cfg_of ~step:(step prog) prog in
  let calls_of = Hashtbl.create (List.length solved) in
  List.iter (fun ((fd : I.fundec), calls) -> Hashtbl.replace calls_of fd.I.fname calls) solved;
  (* A lock held at a call to a defined function is held at its entry
     (on some path), and a callee in interrupt context is in it too. *)
  let entry_held = Hashtbl.create 16 and irq_reach = ref handlers in
  let get_held f = Option.value ~default:SS.empty (Hashtbl.find_opt entry_held f) in
  let held_at f s = SS.union (SS.diff (get_held f) s.rel) s.held in
  let rec enter g held in_irq =
    let cur = get_held g in
    if (not (SS.subset held cur)) || (in_irq && not (SS.mem g !irq_reach)) then begin
      Hashtbl.replace entry_held g (SS.union cur held);
      if in_irq then irq_reach := SS.add g !irq_reach;
      spread g
    end
  and spread f =
    List.iter
      (function
        | I.Icall (_, I.Direct g, _), _, Some s when Hashtbl.mem calls_of g ->
            enter g (held_at f s) (SS.mem f !irq_reach)
        | _ -> ())
      (Hashtbl.find calls_of f)
  in
  List.iter (fun ((fd : I.fundec), _) -> spread fd.I.fname) solved;
  let acquire f = function
    | I.Icall (_, I.Direct name, args), loc, Some s
      when is_lock_fn name && not (Hashtbl.mem calls_of name) ->
        List.map
          (fun lock ->
            { a_lock = lock; a_in = f; a_loc = loc; a_irqsave = name = "spin_lock_irqsave";
              a_held = held_at f s; a_in_irq = SS.mem f !irq_reach })
          (SS.elements (locks args))
    | _ -> []
  in
  let acquires =
    List.concat_map (fun ((fd : I.fundec), c) -> List.concat_map (acquire fd.I.fname) c) solved
  in
  let edge a h = { from_lock = h; to_lock = a.a_lock; where = a.a_loc; in_fn = a.a_in } in
  let edges =
    List.concat_map (fun a -> List.map (edge a) (SS.elements (SS.remove a.a_lock a.a_held)))
      acquires
  in
  (* Deadlock: a pair of locks with order edges both ways. *)
  let pairs = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace pairs (e.from_lock, e.to_lock) ()) edges;
  let both e = e.from_lock < e.to_lock && Hashtbl.mem pairs (e.to_lock, e.from_lock) in
  let cycles =
    List.sort_uniq compare (List.map (fun e -> (e.from_lock, e.to_lock)) (List.filter both edges))
  in
  (* IRQ invariant: a lock acquired in irq context must only ever be
     acquired with interrupts disabled in process context. *)
  let in_irq = List.filter (fun a -> a.a_in_irq) acquires in
  let irq_locks = SS.of_list (List.map (fun a -> a.a_lock) in_irq) in
  let unsafe a = (not (a.a_in_irq || a.a_irqsave)) && SS.mem a.a_lock irq_locks in
  let irq_unsafe = List.map (fun a -> (a.a_lock, a)) (List.filter unsafe acquires) in
  let locks = List.sort_uniq compare (List.map (fun a -> a.a_lock) acquires) in
  { locks; acquires; order_edges = edges; deadlock_cycles = cycles; irq_unsafe }

let pp fmt (r : report) =
  Format.fprintf fmt
    "locksafe: %d locks, %d acquires, %d order edges, %d deadlock pairs, %d irq-unsafe acquires"
    (List.length r.locks) (List.length r.acquires) (List.length r.order_edges)
    (List.length r.deadlock_cycles) (List.length r.irq_unsafe)
