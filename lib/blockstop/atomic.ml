(* Atomic-region analysis: where are interrupts disabled, and which
   calls made there may block?

   The interrupt-disable depth is a {!Dataflow.Fsm} state over each
   function's CFG. The state is an effect on the depth the function was
   entered with, a pair (down, up): the depth drops by [down] (not
   below 0), then rises by [up]. spin_lock / local_irq_disable rise by
   one, the unlock / enable calls drop by one (name lists read only for
   externs), and a call to a defined function applies its own effect;
   pairs compose under sequencing, so a wrapper that only unlocks ends
   its caller's region. Paths that disagree keep the smaller drop and
   the larger rise — conservative, and one source of the false
   positives the paper resolves with runtime checks. At [cap] the count
   is lost, so nothing takes the depth back down there. Entered at
   depth 0, the depth at a point is its [up], so each function is
   solved once; the functions *entered* in atomic context — irq
   handlers (passed to [request_irq]) and callees of atomic sites —
   then close over the solved call sites. *)

module I = Kc.Ir
module SS = Set.Make (String)

type warning = {
  w_in : string; (* function containing the call *)
  w_callee : string;
  w_loc : Kc.Loc.t;
  w_via : Callgraph.via;
  w_entry_atomic : bool; (* atomic because the whole function is entered atomic *)
  w_witness : string list; (* chain down to a blocking leaf *)
}

let disablers = [ "spin_lock"; "spin_lock_irqsave"; "local_irq_disable" ]
let enablers = [ "spin_unlock"; "spin_unlock_irqrestore"; "local_irq_enable" ]

(* Functions registered as interrupt handlers. *)
let irq_handlers (prog : I.program) : SS.t =
  let handlers = ref SS.empty in
  let add () (e : I.exp) = match e.I.e with I.Efun f -> handlers := SS.add f !handlers | _ -> () in
  List.iter
    (fun (fd : I.fundec) ->
      I.iter_instrs
        (function
          | I.Icall (_, I.Direct "request_irq", args) -> List.iter (I.fold_exp add ()) args
          | _ -> ())
        fd.I.fbody)
    prog.I.funcs;
  !handlers

let cap = 4

(* The effect (down, up) since entry, [None] where not reached. *)
module F = Dataflow.Fsm.Make (struct
  type t = (int * int) option

  let bottom = None and entry = Some (0, 0) and equal = ( = )

  let join a b =
    match (a, b) with
    | None, s | s, None -> s
    | Some (d1, u1), Some (d2, u2) -> Some (min d1 d2, max u1 u2)
end)

(* [(d1, u1)] followed by [(d2, u2)]. *)
let seq (d1, u1) (d2, u2) =
  if u1 >= cap then (d1, cap)
  else (min cap (d1 + max 0 (d2 - u1)), min cap (u2 + max 0 (u1 - d2)))

let step ~effect instr s =
  match (instr, s) with
  | I.Icall (_, I.Direct n, _), Some e1 -> (
      match effect n with
      | Some e2 -> Option.map (seq e1) e2
      | None when List.mem n disablers -> Some (seq e1 (0, 1))
      | None when List.mem n enablers -> Some (seq e1 (1, 0))
      | None -> s)
  | _ -> s

(* The depth at a point of a function entered at depth 0. *)
let depth = function Some (_, up) -> up | None -> 0

type result = {
  warnings : warning list;
  atomic_entry : SS.t; (* functions enterable in atomic context *)
  handlers : SS.t;
}

let analyze ?(cfg_of = Dataflow.Cfg.build) (bl : Blocking.t) : result =
  let cg = bl.Blocking.cg and guarded = bl.Blocking.guarded in
  let handlers = irq_handlers cg.Callgraph.prog in
  (* Each function's call-graph edges, with the depth before the call. *)
  let sites =
    List.map
      (fun ((fd : I.fundec), instrs) ->
        let edges_at = Hashtbl.create 8 in
        List.iter
          (fun (e : Callgraph.edge) -> Hashtbl.add edges_at e.Callgraph.loc e)
          (Callgraph.callees cg fd.I.fname);
        ( fd.I.fname,
          List.concat_map
            (fun (_, loc, s) -> List.map (fun e -> (e, depth s)) (Hashtbl.find_all edges_at loc))
            instrs ))
      (F.solve ~cfg_of ~step cg.Callgraph.prog)
  in
  let sites_of = Hashtbl.of_seq (List.to_seq sites) in
  (* A guarded function carries the assert_not_atomic runtime check:
     the assertion says it is never entered in atomic context, so it
     never joins the atomic-entry set; nor does an extern. *)
  let rec enter acc f =
    if SS.mem f acc then acc
    else
      List.fold_left
        (fun acc ((e : Callgraph.edge), _) -> visit acc e.Callgraph.callee)
        (SS.add f acc)
        (Option.value ~default:[] (Hashtbl.find_opt sites_of f))
  and visit acc g = if SS.mem g guarded || not (Hashtbl.mem sites_of g) then acc else enter acc g in
  let atomic_entry =
    List.fold_left
      (fun acc ((e : Callgraph.edge), d) -> if d > 0 then visit acc e.Callgraph.callee else acc)
      (SS.fold (fun h acc -> enter acc h) (SS.diff handlers guarded) SS.empty)
      (List.concat_map snd sites)
  in
  let warning f entry_atomic ((e : Callgraph.edge), d) =
    if (entry_atomic || d > 0) && Blocking.call_may_block bl e then
      let callee = e.Callgraph.callee in
      Some { w_in = f; w_callee = callee; w_loc = e.Callgraph.loc; w_via = e.Callgraph.via;
             w_entry_atomic = entry_atomic && d = 0; w_witness = Blocking.witness bl callee }
    else None
  in
  let warnings =
    List.concat_map (fun (f, ss) -> List.filter_map (warning f (SS.mem f atomic_entry)) ss) sites
  in
  { warnings; atomic_entry; handlers }
