(* The shared whole-program analysis context. See context.mli.

   Since the artifact-graph refactor every memoized value lives in one
   {!Graph} per context: getters name their artifact's key and the
   content hash of its inputs (from the context's {!Fingerprint.table},
   recomputed only when the program is (re)loaded), and fetch their
   inputs through other getters inside the build, where the graph
   records each fetch as an edge. The graph decides hit vs rebuild and
   owns the build/hit/invalidation counters. Per-function CFGs key on
   their function's digest; the per-function absint and refsafe nodes
   on the header digest, a function digest and the callee values their
   solve is given; every whole-program artifact on the program digest,
   so none depends on a hand-kept projection of what its analysis
   reads.
   [update] re-fingerprints a newly parsed version of the program,
   swaps it in, and push-invalidates exactly the per-function
   artifacts whose digest changed — the whole-program artifacts notice
   their own input hash change on next access. *)

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

type t = { mutable prog : Kc.Ir.program; g : Graph.t; mutable fps : Fingerprint.table }

(* [jobs] is ignored: kept for perfbench's callers. *)
let create ?jobs:_ (prog : Kc.Ir.program) : t =
  { prog; g = Graph.create (); fps = Fingerprint.table_of prog }

let program t = t.prog
let graph t = t.g
let program_fingerprint t = t.fps.Fingerprint.t_program

let mode_name = function P.Type_based -> "type-based" | P.Field_based -> "field-based"

(* Artifact keys, shared with consumers that register artifacts of
   their own (Engine.Analysis) or target one (the serve daemon's
   invalidate RPC). *)
module Key = struct
  let pointsto mode = Graph.key (Printf.sprintf "pointsto(%s)" (mode_name mode))
  let callgraph mode = Graph.key (Printf.sprintf "callgraph(%s)" (mode_name mode))
  let blocking mode = Graph.key (Printf.sprintf "blocking(%s)" (mode_name mode))
  let cfg fname = Graph.key ~param:fname "cfg"
  let summaries = Graph.key "absint-summaries"
  let summary fname = Graph.key ~param:fname "absint-summary"
  let discharge fname = Graph.key ~param:fname "absint-discharge"
  let instrumented = Graph.key "deputy-instrumented"
  let deputized = Graph.key "deputized(absint)"
  let vm_compiled = Graph.key "vm-compiled"
  let irq_handlers = Graph.key "irq-handlers"
  let refsafe_summaries = Graph.key "refsafe-summaries"
  let refsafe_summary fname = Graph.key ~param:fname "refsafe-summary"
  let refsafe_findings fname = Graph.key ~param:fname "refsafe-findings"
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
let summary_slot : Absint.Aval.t Graph.slot = Graph.slot ()
let discharge_slot : Absint.Discharge.verdict Graph.slot = Graph.slot ()
let instrumented_slot : (Kc.Ir.program * Deputy.Dreport.report) Graph.slot = Graph.slot ()
let deputized_slot : deputized Graph.slot = Graph.slot ()
let vm_compiled_slot : Vm.Compile.t Graph.slot = Graph.slot ()
let refsafe_summaries_slot : (Refsafe.Summary.summaries * string Refsafe.Summary.SM.t) Graph.slot =
  Graph.slot ()
let refsafe_summary_slot : Refsafe.Summary.fsum Graph.slot = Graph.slot ()
let refsafe_findings_slot : Refsafe.Ownership.finding list Graph.slot = Graph.slot ()
let ccounted_slot : ccounted Graph.slot = Graph.slot ()

let pointsto ?(mode = P.Type_based) (t : t) : P.t =
  Graph.get t.g pointsto_slot (Key.pointsto mode) ~fp:(program_fingerprint t) (fun () ->
      P.build ~mode t.prog)

let callgraph ?(mode = P.Type_based) (t : t) : CG.t =
  Graph.get t.g callgraph_slot (Key.callgraph mode) ~fp:(program_fingerprint t) (fun () ->
      CG.build ~pointsto:(pointsto ~mode t) t.prog)

let blocking ?(mode = P.Type_based) (t : t) : BL.t =
  Graph.get t.g blocking_slot (Key.blocking mode) ~fp:(program_fingerprint t) (fun () ->
      BL.compute (callgraph ~mode t))

let fn_fingerprint t fname =
  match Fingerprint.find t.fps fname with
  | Some d -> d
  | None -> Fingerprint.fn (Option.get (Kc.Ir.find_fun t.prog fname))

let cfg (t : t) (fname : string) : Dataflow.Cfg.t option =
  match Kc.Ir.find_fun t.prog fname with
  | Some fd when not fd.Kc.Ir.fextern ->
      Some
        (Graph.get t.g cfg_slot (Key.cfg fname) ~fp:(fn_fingerprint t fname) (fun () ->
             Dataflow.Cfg.build fd))
  | _ -> None

let defined_funcs (t : t) : Kc.Ir.fundec list =
  List.filter (fun (fd : Kc.Ir.fundec) -> not fd.Kc.Ir.fextern) t.prog.Kc.Ir.funcs

(* The product domain; a constant, kept for perfbench's layer probe. *)
let relsum_ifaces (_ : t) = Absint.Transfer.no_ifaces

(* Instrument + Facts-optimize a shallow copy of the base program,
   once per program version: the summaries read its residual roots,
   and the deputized view discharges a shallow copy of it. *)
let instrumented (t : t) : Kc.Ir.program * Deputy.Dreport.report =
  Graph.get t.g instrumented_slot Key.instrumented ~fp:(program_fingerprint t) (fun () ->
      let iprog = Kc.Ir.copy_program t.prog in
      (iprog, Deputy.Dreport.deputize iprog))

(* The key of a per-function node: the header digest, the digest of
   the function its solve reads and the callee values it is given
   ([inputs]). *)
let node_fp (t : t) ~digest ~inputs =
  Digest.string (String.concat "\000" [ t.fps.Fingerprint.t_header; digest; inputs ])

(* A per-function absint memo ({!Absint.Summary.memo}): one node per
   (artifact, function), keyed by [node_fp]. The solve runs inside the
   build, so the node is charged its own time. *)
let fn_memo (t : t) slot ~key ~digest : 'a Absint.Summary.memo =
 fun (fd : Kc.Ir.fundec) ~inputs solve ->
  Graph.get t.g slot (key fd.Kc.Ir.fname) ~fp:(node_fp t ~digest:(digest fd) ~inputs) solve

(* The base function's digest, for the nodes that solve over it. *)
let base_digest (t : t) (fd : Kc.Ir.fundec) = fn_fingerprint t fd.Kc.Ir.fname

(* Interprocedural interval summaries over the base (uninstrumented)
   program, sharing the memoized CFGs: instrumentation only adds
   checks and temporaries, so return-value summaries computed here
   stay valid for the deputized view. Only the summaries discharge
   reads are solved: those of the functions reachable through direct
   calls from a function that still holds a check in the deputized
   view. Each function's summary is its own [absint-summary] node, so
   an edit that leaves a summary unchanged leaves its callers'
   summaries warm; this artifact only assembles them. *)
let absint_summaries (t : t) : Absint.Transfer.summaries =
  Graph.get t.g summaries_slot Key.summaries ~fp:(program_fingerprint t) (fun () ->
      let iprog, _ = instrumented t in
      (* Fetch every defined function's CFG here, so each is an edge
         of this artifact and an edit that changes one reaches it; the
         per-function nodes then read them from this table. *)
      let cfgs = Hashtbl.create 64 in
      List.iter
        (fun (fd : Kc.Ir.fundec) ->
          Option.iter (Hashtbl.replace cfgs fd.Kc.Ir.fname) (cfg t fd.Kc.Ir.fname))
        (defined_funcs t);
      let cfg_of (fd : Kc.Ir.fundec) = Hashtbl.find cfgs fd.Kc.Ir.fname in
      let memo = fn_memo t summary_slot ~key:Key.summary ~digest:(base_digest t) in
      Absint.Summary.compute ~cfg_of
        ~roots:(Absint.Discharge.residual_roots iprog) ~memo t.prog)

(* The deputized view: absint-discharge a shallow copy of the
   instrumented program (discharge replaces bodies, so the shared copy
   stays intact), leaving the context's base program untouched. Each
   function that still holds a check gets its own [absint-discharge]
   node, keyed on its instrumented body: a callee annotation edit
   changes that body even when the caller's own source is unchanged. *)
let deputized (t : t) : deputized =
  Graph.get t.g deputized_slot Key.deputized ~fp:(program_fingerprint t) (fun () ->
      let summaries = absint_summaries t in
      let iprog, dreport = instrumented t in
      let dprog = Kc.Ir.copy_program iprog in
      let memo = fn_memo t discharge_slot ~key:Key.discharge ~digest:Fingerprint.fn in
      let dstats = Absint.Discharge.run ~summaries ~memo dprog in
      { dprog; dreport; dstats })

(* Refsafe ownership summaries: flow-insensitive per-function alias
   facts solved callees-first over the Tarjan SCCs. Each function's
   summary is its own [refsafe-summary] node, keyed like an absint
   summary on its direct callees' values ({!Refsafe.Summary.inputs}),
   so an edit that leaves a summary unchanged leaves its callers'
   nodes warm. This artifact only assembles them, and keeps each
   node's key for the findings nodes. *)
let refsafe_solved (t : t) : Refsafe.Summary.summaries * string Refsafe.Summary.SM.t =
  Graph.get t.g refsafe_summaries_slot Key.refsafe_summaries ~fp:(program_fingerprint t)
    (fun () ->
      let keys = ref Refsafe.Summary.SM.empty in
      let memo (fd : Kc.Ir.fundec) ~inputs solve =
        let fp = node_fp t ~digest:(base_digest t fd) ~inputs in
        keys := Refsafe.Summary.SM.add fd.Kc.Ir.fname fp !keys;
        Graph.get t.g refsafe_summary_slot (Key.refsafe_summary fd.Kc.Ir.fname) ~fp solve
      in
      let summaries = Refsafe.Summary.compute ~memo t.prog in
      (summaries, !keys))

let refsafe_summaries (t : t) : Refsafe.Summary.summaries = fst (refsafe_solved t)

(* The ownership checker's findings, one [refsafe-findings] node per
   defined function with the key of its summary node (a recursive
   function has none, so its key is rendered here). The checker reads
   the summary map only at direct calls, as the summary solve does, so
   the key covers every entry it reads and it is given the whole map.
   Each node fetches its function's CFG inside its build: invalidating
   that CFG drops the node and every report read from it. *)
let refsafe_findings (t : t) : Refsafe.Ownership.finding list =
  let summaries, keys = refsafe_solved t in
  List.concat_map
    (fun (fd : Kc.Ir.fundec) ->
      let fname = fd.Kc.Ir.fname in
      let fp =
        match Refsafe.Summary.SM.find_opt fname keys with
        | Some fp -> fp
        | None ->
            node_fp t ~digest:(base_digest t fd) ~inputs:(snd (Refsafe.Summary.inputs summaries fd))
      in
      Graph.get t.g refsafe_findings_slot (Key.refsafe_findings fname) ~fp (fun () ->
          Refsafe.Ownership.check ~cfg_of:(fun fd -> Option.get (cfg t fd.Kc.Ir.fname)) summaries fd))
    (defined_funcs t)

(* The CCount view: rc-instrument a shallow copy, then let the refsafe
   discharge strip the counter updates it proves unobservable. *)
let ccount_discharged (t : t) : ccounted =
  Graph.get t.g ccounted_slot Key.ccount_discharged ~fp:(program_fingerprint t) (fun () ->
      let cprog = Kc.Ir.copy_program t.prog in
      let cinstr, cinfo = Ccount.Rc_instrument.instrument_program cprog in
      let crstats = Refsafe.Discharge.run ~summaries:(refsafe_summaries t) cprog in
      { cprog; cinstr; cinfo; crstats })

(* The VM's compiled form of the base program. Vm.Compile keeps its
   own per-program memo (so fuzz-case programs outside any context
   still share code); this artifact pins the result on the context and
   folds its construction into the stats lines. *)
let vm_compiled (t : t) : Vm.Compile.t =
  Graph.get t.g vm_compiled_slot Key.vm_compiled ~fp:(program_fingerprint t) (fun () ->
      Vm.Compile.of_program t.prog)

let irq_handlers (t : t) : AT.SS.t =
  Graph.get t.g handlers_slot Key.irq_handlers ~fp:(program_fingerprint t) (fun () ->
      AT.irq_handlers t.prog)

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
       longer exist) are push-invalidated along the recorded edges:
       cfg(f) -> absint-summaries -> deputized(absint) -> check(absint),
       and cfg(f) -> refsafe-findings(f) -> check(refsafe).
       Whole-program artifacts re-key themselves on next access via
       their own input hash. The other per-function nodes read no other
       node and carry their inputs in their key: an edited function's
       nodes are re-keyed on next access, a removed function's
       dropped. *)
    let drop acc k = acc + Graph.invalidate t.g k in
    let dropped =
      List.fold_left
        (fun acc f -> drop acc (Key.cfg f))
        0
        (d.Fingerprint.d_changed @ d.Fingerprint.d_removed)
    in
    let dropped =
      List.fold_left
        (fun acc f ->
          List.fold_left drop acc
            [ Key.summary f; Key.discharge f; Key.refsafe_summary f; Key.refsafe_findings f ])
        dropped d.Fingerprint.d_removed
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

let stats (t : t) : stat list = Graph.stats t.g

(* Contexts are never shared across domains — each Par worker creates
   its own and ships back its [stats] — so aggregation is a plain fold
   on the merging side: per-artifact sums, sorted by name. Builds,
   hits and invalidations are deterministic; seconds are not. *)
let merge_counters (per_worker : stat list list) : stat list = Graph.merge per_worker
