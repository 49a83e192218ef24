(* Atomic-region analysis: where are interrupts disabled, and which
   calls made there may block?

   The interrupt-disable depth is a {!Dataflow.Fsm} state over each
   function's CFG, solved from 0: spin_lock / local_irq_disable add
   one, the unlock / enable calls take one off (name lists read only
   for externs), and a call to a defined function adds its net depth.
   Paths that disagree keep the larger depth — conservative, and one
   source of the false positives the paper resolves with runtime
   checks. At [cap] the count is lost, so an enable keeps the depth
   there. The depth does not depend on how a function is entered, so
   each is solved once; the functions *entered* in atomic context —
   irq handlers (passed to [request_irq]) and callees of atomic sites
   — then close over the solved call sites. *)

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

(* The irq-disable depth, -1 where not reached. *)
module F = Dataflow.Fsm.Make (struct
  type t = int

  let bottom = -1 and entry = 0 and equal = Int.equal and join = max
end)

let step ~effect instr d =
  match instr with
  | I.Icall (_, I.Direct n, _) -> (
      match effect n with
      | Some e -> min cap (d + e)
      | None when List.mem n disablers -> min cap (d + 1)
      | None when List.mem n enablers && d < cap -> max 0 (d - 1)
      | None -> d)
  | _ -> d

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
            (fun (_, loc, d) -> List.map (fun e -> (e, d)) (Hashtbl.find_all edges_at loc))
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
