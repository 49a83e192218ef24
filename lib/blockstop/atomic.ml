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
   is lost, so nothing takes the depth back down there. Each function
   is solved once, as an effect; entered at depth [e], the depth at a
   point with effect (down, up) is [max 0 (e - down) + up], or [cap]
   when [e] is. A function's entry depth is the largest depth at any
   call to it, and [cap] for an irq handler (passed to [request_irq]):
   interrupt context lasts the whole handler, whatever it unlocks or
   enables. It is closed to a fixpoint over the solved call sites. A
   call blocks in the region only if its callee, entered at the depth
   of the call, reaches a blocking call at a positive depth: a wrapper
   that drops the caller's one lock before it sleeps is not flagged at
   its call site. *)

module I = Kc.Ir
module SS = Set.Make (String)

type warning = {
  w_in : string; (* function containing the call *)
  w_callee : string;
  w_loc : Kc.Loc.t;
  w_via : Callgraph.via;
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

(* The depth at a point of a function entered at depth [entry]; as in
   [seq], an entry at [cap] has lost its count and stays there. *)
let depth entry = function
  | Some _ when entry >= cap -> cap
  | Some (down, up) -> min cap (max 0 (entry - down) + up)
  | None -> 0

type result = { warnings : warning list; handlers : SS.t }

let analyze ?(cfg_of = Dataflow.Cfg.build) (bl : Blocking.t) : result =
  let cg = bl.Blocking.cg and guarded = bl.Blocking.guarded in
  let handlers = irq_handlers cg.Callgraph.prog in
  (* Each function's call-graph edges, with the effect before the call. *)
  let sites =
    List.map
      (fun ((fd : I.fundec), instrs) ->
        let edges_at = Hashtbl.create 8 in
        List.iter
          (fun (e : Callgraph.edge) -> Hashtbl.add edges_at e.Callgraph.loc e)
          (Callgraph.callees cg fd.I.fname);
        ( fd.I.fname,
          List.concat_map
            (fun (_, loc, s) -> List.map (fun e -> (e, s)) (Hashtbl.find_all edges_at loc))
            instrs ))
      (F.solve ~cfg_of ~step cg.Callgraph.prog)
  in
  (* Entry depths, raised to a fixpoint (bounded by [cap]). A guarded
     function carries the assert_not_atomic runtime check: the
     assertion says it is never entered in atomic context, so it stays
     at 0; so does an extern, which has no sites. *)
  let sites_of = Hashtbl.of_seq (List.to_seq sites) in
  let entry = Hashtbl.create 64 in
  let entry_of f = Option.value ~default:0 (Hashtbl.find_opt entry f) in
  let raise_to g d =
    let enterable = Hashtbl.mem sites_of g && not (SS.mem g guarded) in
    enterable && d > entry_of g && (Hashtbl.replace entry g d; true)
  in
  SS.iter (fun h -> ignore (raise_to h cap)) handlers;
  let rec close () =
    let changed =
      List.fold_left
        (fun changed (f, ss) ->
          List.fold_left
            (fun changed ((e : Callgraph.edge), s) ->
              raise_to e.Callgraph.callee (depth (entry_of f) s) || changed)
            changed ss)
        false sites
    in
    if changed then close ()
  in
  close ();
  (* Each function's threshold: the least entry depth at which it
     reaches a blocking call at a positive depth, absent when none
     does. [depth] is monotone in the entry, so a function entered at
     or above its threshold blocks in the region and one entered below
     it does not. A call at depth [d] then blocks when it is a may-wait
     allocation, its callee is an annotated leaf, or the callee's
     threshold is at most [d]; a guarded callee never does. Thresholds
     fall to a fixpoint from "absent". *)
  let threshold = Hashtbl.create 64 in
  let blocks_at d (e : Callgraph.edge) =
    let g = e.Callgraph.callee in
    d > 0
    && Blocking.call_may_block bl e
    && (e.Callgraph.gfp <> Callgraph.No_gfp
       || Hashtbl.find_opt bl.Blocking.blocking g = Some Blocking.Annotated
       || match Hashtbl.find_opt threshold g with Some t -> t <= d | None -> false)
  in
  let least ss =
    let rec go e =
      if e > cap then None
      else if List.exists (fun (ed, s) -> blocks_at (depth e s) ed) ss then Some e
      else go (e + 1)
    in
    go 0
  in
  let rec lower () =
    let changed =
      List.fold_left
        (fun changed (f, ss) ->
          match least ss with
          | Some t when Hashtbl.find_opt threshold f <> Some t ->
              Hashtbl.replace threshold f t;
              true
          | _ -> changed)
        false sites
    in
    if changed then lower ()
  in
  lower ();
  let warning f ((e : Callgraph.edge), s) =
    if blocks_at (depth (entry_of f) s) e then
      let callee = e.Callgraph.callee in
      Some { w_in = f; w_callee = callee; w_loc = e.Callgraph.loc; w_via = e.Callgraph.via;
             w_witness = Blocking.witness bl callee }
    else None
  in
  let warnings = List.concat_map (fun (f, ss) -> List.filter_map (warning f) ss) sites in
  { warnings; handlers }
