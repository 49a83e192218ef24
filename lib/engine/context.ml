(* The shared whole-program analysis context. See context.mli.

   Since the artifact-graph refactor every memoized value lives in one
   {!Graph} per context: getters declare their artifact's key, its
   dependency edges and the content hash of its inputs (from the
   context's {!Fingerprint.table}, recomputed only when the program is
   (re)loaded), and the graph decides hit vs rebuild and owns the
   build/hit/invalidation counters. [update] re-fingerprints a newly
   parsed version of the program, swaps it in, and push-invalidates
   exactly the per-function artifacts whose digest changed — the
   whole-program artifacts notice their own input hash change on next
   access. *)

module P = Blockstop.Pointsto
module CG = Blockstop.Callgraph
module BL = Blockstop.Blocking
module AT = Blockstop.Atomic

(* The deputized view of the program: a shallow copy instrumented,
   Facts-optimized and absint-discharged, with both passes' stats. *)
type deputized = {
  dprog : Kc.Ir.program;
  dreport : Deputy.Dreport.report;
  dstats : Absint.Discharge.stats;
}

(* The CCount view of the program: a shallow copy rc-instrumented and
   then thinned by the refsafe discharge, with both passes' stats and
   the RTTI needed to boot it. *)
type ccounted = {
  cprog : Kc.Ir.program;
  cinstr : Ccount.Rc_instrument.stats;
  cinfo : Ccount.Typeinfo.t;
  crstats : Refsafe.Discharge.stats;
}

type t = {
  mutable prog : Kc.Ir.program;
  jobs : int;
  g : Graph.t;
  mutable fps : Fingerprint.table;
  prefetch_miss : int Atomic.t;
      (* CFGs built by Par workers outside the graph because the
         serial prefetch missed them; surfaced in stats, never
         silent. *)
}

let create ?(jobs = 1) (prog : Kc.Ir.program) : t =
  { prog; jobs; g = Graph.create (); fps = Fingerprint.table_of prog;
    prefetch_miss = Atomic.make 0 }

let program t = t.prog
let graph t = t.g
let program_fingerprint t = t.fps.Fingerprint.t_program
let skeleton_fingerprint t = t.fps.Fingerprint.t_skeleton
let ptrflow_fingerprint t = t.fps.Fingerprint.t_ptrflow

let mode_name = function P.Type_based -> "type-based" | P.Field_based -> "field-based"

(* Artifact keys, shared with consumers that declare dependencies on
   us (Ivy.Checks, the serve daemon's invalidate RPC). *)
module Key = struct
  let pointsto mode = Graph.key (Printf.sprintf "pointsto(%s)" (mode_name mode))
  let callgraph mode = Graph.key (Printf.sprintf "callgraph(%s)" (mode_name mode))
  let blocking mode = Graph.key (Printf.sprintf "blocking(%s)" (mode_name mode))
  let cfg fname = Graph.key ~param:fname "cfg"
  let summaries = Graph.key "absint-summaries"
  let relsum = Graph.key "relsum-ifaces"
  let deputized = Graph.key "deputized(absint)"
  let vm_compiled = Graph.key "vm-compiled"
  let irq_handlers = Graph.key "irq-handlers"
  let refsafe_summaries = Graph.key "refsafe-summaries"
  let ccount_discharged = Graph.key "ccount-discharged"
  let check name = Graph.key (Printf.sprintf "check(%s)" name)
end

(* One slot per artifact family (see Graph.slot): allocated once so
   projection always matches injection. *)
let pointsto_slot : P.t Graph.slot = Graph.slot ()
let callgraph_slot : CG.t Graph.slot = Graph.slot ()
let blocking_slot : BL.t Graph.slot = Graph.slot ()
let cfg_slot : Dataflow.Cfg.t Graph.slot = Graph.slot ()
let handlers_slot : AT.SS.t Graph.slot = Graph.slot ()
let summaries_slot : Absint.Transfer.summaries Graph.slot = Graph.slot ()
let relsum_slot : Absint.Transfer.ifaces Graph.slot = Graph.slot ()
let deputized_slot : deputized Graph.slot = Graph.slot ()
let vm_compiled_slot : Vm.Compile.t Graph.slot = Graph.slot ()
let refsafe_summaries_slot : Refsafe.Summary.summaries Graph.slot = Graph.slot ()
let ccounted_slot : ccounted Graph.slot = Graph.slot ()

let pointsto ?(mode = P.Type_based) (t : t) : P.t =
  Graph.get t.g pointsto_slot
    ~name:(Key.pointsto mode).Graph.name
    ~fp:(skeleton_fingerprint t)
    (fun () -> P.build ~mode t.prog)

let callgraph ?(mode = P.Type_based) (t : t) : CG.t =
  (* Fetch the dependency first so its stamp is current when the graph
     checks ours. *)
  let pt = pointsto ~mode t in
  Graph.get t.g callgraph_slot
    ~name:(Key.callgraph mode).Graph.name
    ~deps:[ Key.pointsto mode ]
    ~fp:(skeleton_fingerprint t)
    (fun () -> CG.build ~pointsto:pt t.prog)

let blocking ?(mode = P.Type_based) (t : t) : BL.t =
  let cg = callgraph ~mode t in
  Graph.get t.g blocking_slot
    ~name:(Key.blocking mode).Graph.name
    ~deps:[ Key.callgraph mode ]
    ~fp:(skeleton_fingerprint t)
    (fun () -> BL.compute cg)

let fn_fingerprint t fname =
  match List.assoc_opt fname t.fps.Fingerprint.t_fns with
  | Some d -> d
  | None -> Fingerprint.fn (Option.get (Kc.Ir.find_fun t.prog fname))

let cfg (t : t) (fname : string) : Dataflow.Cfg.t option =
  match Kc.Ir.find_fun t.prog fname with
  | Some fd when not fd.Kc.Ir.fextern ->
      Some
        (Graph.get t.g cfg_slot ~name:"cfg" ~param:fname ~fp:(fn_fingerprint t fname)
           (fun () -> Dataflow.Cfg.build fd))
  | _ -> None

let defined_funcs (t : t) : Kc.Ir.fundec list =
  List.filter (fun (fd : Kc.Ir.fundec) -> not fd.Kc.Ir.fextern) t.prog.Kc.Ir.funcs

(* Relational interface summaries over the base program.  They read
   only the pointer-flow projection of each body (Relsum mirrors
   Fingerprint.ptrflow), so the artifact keys on that digest and stays
   warm across arithmetic-only edits — unlike the interval summaries
   below, which read every body.  Under IVY_ABSINT_DOMAIN=interval the
   getter short-circuits to the empty interface map without touching
   the graph. *)
let relsum_ifaces (t : t) : Absint.Transfer.ifaces =
  if not (Absint.Domain.relational ()) then Absint.Transfer.no_ifaces
  else
    Graph.get t.g relsum_slot ~name:Key.relsum.Graph.name
      ~fp:(ptrflow_fingerprint t)
      (fun () -> Absint.Relsum.compute ~jobs:t.jobs t.prog)

(* Interprocedural interval summaries over the base (uninstrumented)
   program, sharing the memoized CFGs: instrumentation only adds
   checks and temporaries, so return-value summaries computed here
   stay valid for the deputized view. *)
let absint_summaries (t : t) : Absint.Transfer.summaries =
  let ifaces = relsum_ifaces t in
  let defined = defined_funcs t in
  (* Populate the CFG artifacts serially (the graph is single-domain),
     then fan the summary solve out over an immutable snapshot. A
     snapshot miss means a function the prefetch could not see; it is
     built outside the graph but counted (satellite: a missed prefetch
     surfaces in stats, it does not vanish). *)
  List.iter (fun (fd : Kc.Ir.fundec) -> ignore (cfg t fd.Kc.Ir.fname)) defined;
  let snapshot = Hashtbl.create (List.length defined) in
  List.iter
    (fun (fd : Kc.Ir.fundec) ->
      match cfg t fd.Kc.Ir.fname with
      | Some c -> Hashtbl.replace snapshot fd.Kc.Ir.fname c
      | None -> ())
    defined;
  let cfg_of (fd : Kc.Ir.fundec) =
    match Hashtbl.find_opt snapshot fd.Kc.Ir.fname with
    | Some c -> c
    | None ->
        Atomic.incr t.prefetch_miss;
        Dataflow.Cfg.build fd
  in
  Graph.get t.g summaries_slot ~name:Key.summaries.Graph.name
    ~deps:
      (Key.relsum
      :: List.map (fun (fd : Kc.Ir.fundec) -> Key.cfg fd.Kc.Ir.fname) defined)
    ~fp:(program_fingerprint t)
    (fun () -> Absint.Summary.compute ~cfg_of ~jobs:t.jobs ~ifaces t.prog)

(* The deputized view: instrument + Facts-optimize + absint-discharge
   a shallow copy, leaving the context's base program untouched. *)
let deputized (t : t) : deputized =
  let ifaces = relsum_ifaces t in
  let summaries = absint_summaries t in
  Graph.get t.g deputized_slot ~name:Key.deputized.Graph.name
    ~deps:[ Key.relsum; Key.summaries ]
    ~fp:(program_fingerprint t)
    (fun () ->
      let dprog = Kc.Ir.copy_program t.prog in
      let dreport = Deputy.Dreport.deputize dprog in
      let dstats = Absint.Discharge.run ~summaries ~ifaces dprog in
      { dprog; dreport; dstats })

(* Refsafe ownership summaries: flow-insensitive per-function alias
   facts solved over the Tarjan SCC levels. They read only the
   pointer-flow projection of each body, so they key on the (extended)
   call skeleton and stay warm across arithmetic-only edits. *)
let refsafe_summaries (t : t) : Refsafe.Summary.summaries =
  Graph.get t.g refsafe_summaries_slot
    ~name:Key.refsafe_summaries.Graph.name
    ~fp:(skeleton_fingerprint t)
    (fun () -> Refsafe.Summary.compute ~jobs:t.jobs t.prog)

(* The CCount view: rc-instrument a shallow copy, then let the refsafe
   discharge strip the counter updates it proves unobservable. Keyed
   on the full program digest (instrumentation reads every body) with
   the summaries as a declared dependency. *)
let ccount_discharged (t : t) : ccounted =
  let summaries = refsafe_summaries t in
  Graph.get t.g ccounted_slot ~name:Key.ccount_discharged.Graph.name
    ~deps:[ Key.refsafe_summaries ]
    ~fp:(program_fingerprint t)
    (fun () ->
      let cprog = Kc.Ir.copy_program t.prog in
      let cinstr, cinfo = Ccount.Rc_instrument.instrument_program cprog in
      let crstats = Refsafe.Discharge.run ~summaries cprog in
      { cprog; cinstr; cinfo; crstats })

(* The VM's compiled form of the base program. Vm.Compile keeps its
   own per-program memo (so fuzz-case programs outside any context
   still share code); this artifact pins the result on the context and
   folds its construction into the stats lines. *)
let vm_compiled (t : t) : Vm.Compile.t =
  Graph.get t.g vm_compiled_slot ~name:Key.vm_compiled.Graph.name
    ~fp:(program_fingerprint t)
    (fun () -> Vm.Compile.of_program t.prog)

let irq_handlers (t : t) : AT.SS.t =
  Graph.get t.g handlers_slot ~name:Key.irq_handlers.Graph.name
    ~fp:(skeleton_fingerprint t)
    (fun () -> AT.irq_handlers t.prog)

(* Generic artifact registration for consumers outside the engine
   (Ivy.Checks caches per-analysis diagnostics this way). *)
let cached (t : t) (slot : 'a Graph.slot) ~name ?param ?deps ~fp (build : unit -> 'a) : 'a =
  Graph.get t.g slot ~name ?param ?deps ~fp build

(* ------------------------------------------------------------------ *)
(* Incremental update                                                 *)
(* ------------------------------------------------------------------ *)

type update = {
  u_changed : string list;
  u_added : string list;
  u_removed : string list;
  u_header_changed : bool;
  u_unchanged : bool;  (** nothing differed; the old program was kept *)
  u_dropped : int;  (** artifacts push-invalidated by the update *)
}

let update (t : t) (prog : Kc.Ir.program) : update =
  let fps = Fingerprint.table_of prog in
  if Fingerprint.unchanged ~old:t.fps fps then
    (* Keep the old program object: artifacts stay physically shared
       and the VM's per-program compile memo stays warm. *)
    { u_changed = []; u_added = []; u_removed = []; u_header_changed = false;
      u_unchanged = true; u_dropped = 0 }
  else begin
    let d = Fingerprint.diff ~old:t.fps fps in
    t.prog <- prog;
    t.fps <- fps;
    (* Per-function artifacts whose content hash changed (or that no
       longer exist) are push-invalidated along the declared edges:
       cfg(f) -> absint-summaries -> deputized(absint) -> check(absint).
       Whole-program artifacts re-key themselves on next access via
       their own input hash. *)
    let dropped =
      List.fold_left
        (fun acc f -> acc + Graph.invalidate t.g (Key.cfg f))
        0
        (d.Fingerprint.d_changed @ d.Fingerprint.d_removed)
    in
    {
      u_changed = d.Fingerprint.d_changed;
      u_added = d.Fingerprint.d_added;
      u_removed = d.Fingerprint.d_removed;
      u_header_changed = d.Fingerprint.d_header_changed;
      u_unchanged = false;
      u_dropped = dropped;
    }
  end

let invalidate (t : t) (k : Graph.key) : int = Graph.invalidate t.g k
let invalidate_all (t : t) : int = Graph.invalidate_all t.g

(* ------------------------------------------------------------------ *)
(* Observability                                                      *)
(* ------------------------------------------------------------------ *)

type stat = Graph.stat = {
  artifact : string;
  builds : int;
  hits : int;
  invalidations : int;
  seconds : float;
}

let stats (t : t) : stat list =
  let base = Graph.stats t.g in
  let misses = Atomic.get t.prefetch_miss in
  if misses = 0 then base
  else
    base
    @ [
        { artifact = "cfg(prefetch-miss)"; builds = misses; hits = 0; invalidations = 0;
          seconds = 0.0 };
      ]
    |> List.sort (fun a b -> String.compare a.artifact b.artifact)

let prefetch_misses (t : t) : int = Atomic.get t.prefetch_miss

(* Contexts are never shared across domains — each Par worker creates
   its own and ships back its [stats] — so aggregation is a plain fold
   on the merging side: per-artifact sums, sorted by name. Builds,
   hits and invalidations are deterministic; seconds are wall-clock. *)
let merge_counters (per_worker : stat list list) : stat list = Graph.merge per_worker
