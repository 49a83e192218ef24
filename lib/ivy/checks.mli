(** The engine's analysis registry: the seven whole-program checkers
    ([blockstop], [locksafe], [stackcheck], [errcheck], [userck],
    [absint], [refsafe]) wrapped as {!Engine.Analysis.S}
    implementations that share one {!Engine.Context.t} — the call
    graph, points-to facts and interval summaries are built once for
    the whole batch — and report unified {!Engine.Diag.t} diagnostics.
    [ivy check] and every per-analysis subcommand run through this
    registry. *)

val blockstop : Engine.Analysis.t
val locksafe : Engine.Analysis.t
val stackcheck : Engine.Analysis.t
val errcheck : Engine.Analysis.t
val userck : Engine.Analysis.t

(** Interval abstract interpretation + static discharge of Deputy
    checks; reports are informational (discharge rate, per-function
    fixpoint iterations and widening points). *)
val absint : Engine.Analysis.t

(** Registration order (also the default run order): the values above,
    then [refsafe] (refcount-ownership findings plus the CCount
    discharge census), reachable through {!find}. *)
val all : Engine.Analysis.t list

val find : string -> Engine.Analysis.t option

exception Unknown_analysis of string

(** Run the named analyses (default: all) over one shared context.
    Raises {!Unknown_analysis} for a name not in the registry. *)
val run_all :
  ?only:string list -> Engine.Context.t -> (string * Engine.Diag.t list) list

(** Flatten a run's results into one sorted, deduplicated list. *)
val diags : (string * Engine.Diag.t list) list -> Engine.Diag.t list
