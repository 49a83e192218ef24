(* BlockStop driver and report (paper §2.3 / experiment E4). *)

module SS = Set.Make (String)
module I = Kc.Ir

type report = {
  mode : Pointsto.mode;
  edges : int;
  blocking_functions : int;
  warnings : Atomic.warning list;
  handlers : SS.t;
  guarded : SS.t;
}

(* Run the whole BlockStop pipeline. [guard] names functions that get
   the manual runtime check (and are excluded from propagation). A
   caller already holding a call graph (the engine) passes it via [cg]
   and pays no rebuild; the report's mode is then the prebuilt graph's
   points-to mode. *)
let analyze ?(mode = Pointsto.Type_based) ?cg ?(guard = []) (prog : I.program) : report =
  let cg, mode =
    match cg with
    | Some cg -> (cg, cg.Callgraph.pointsto.Pointsto.mode)
    | None -> (Callgraph.build ~mode prog, mode)
  in
  let bl = Blocking.compute ~guarded:(SS.of_list guard) cg in
  let result = Atomic.analyze bl in
  {
    mode;
    edges = Callgraph.n_edges cg;
    blocking_functions = Blocking.blocking_count bl;
    warnings = result.Atomic.warnings;
    handlers = result.Atomic.handlers;
    guarded = SS.of_list guard;
  }

(* Deduplicate warnings by (function, callee): several paths through
   the same call site count once, as a human reader would count. *)
let distinct_warnings (r : report) : (string * string) list =
  List.sort_uniq compare
    (List.map (fun (w : Atomic.warning) -> (w.Atomic.w_in, w.Atomic.w_callee)) r.warnings)

let pp fmt (r : report) =
  let mode = match r.mode with Pointsto.Type_based -> "type-based" | Pointsto.Field_based -> "field-based" in
  Format.fprintf fmt
    "blockstop (%s points-to): %d call edges, %d blocking functions, %d warnings (%d distinct), \
     %d irq handlers, %d guarded"
    mode r.edges r.blocking_functions (List.length r.warnings)
    (List.length (distinct_warnings r))
    (SS.cardinal r.handlers) (SS.cardinal r.guarded)
