(** Interprocedural summaries: one abstract return value per defined
    function, computed callees-first over the SCC condensation of the
    direct-call graph. Recursive components degrade to the return
    type's range. *)

val direct_callees : Kc.Ir.fundec -> string list

val sccs_of : Kc.Ir.fundec list -> Kc.Ir.fundec list list
(** Tarjan condensation of the direct-call graph, callees first.
    Exposed for tests. *)

val is_self_recursive : Kc.Ir.fundec -> bool
(** Does the function call itself directly? Shared with {!Relsum}. *)

val levels_of : Kc.Ir.fundec list list -> Kc.Ir.fundec list list list
(** Group topologically ordered SCCs ({i callees first}) into
    bottom-up dependency levels: every component of a level calls only
    into strictly lower levels, so one level's components can be
    solved in parallel. Exposed for tests. *)

val compute :
  ?cfg_of:(Kc.Ir.fundec -> Dataflow.Cfg.t) ->
  ?jobs:int ->
  ?ifaces:Transfer.ifaces ->
  ?roots:string list ->
  Kc.Ir.program ->
  Transfer.summaries
(** [cfg_of] lets a caller (the engine context) share memoized CFGs;
    defaults to {!Dataflow.Cfg.build}. [jobs] (default 1) solves the
    components of one SCC level on a {!Par} pool — components within a
    level are mutually independent, and levels stay bottom-up, so the
    summaries are identical to the serial computation. With [jobs > 1]
    the caller must pass a [cfg_of] that is safe to call from several
    domains (pure, or fully pre-populated). With [roots], only the
    summaries the fixpoints of [roots] read are solved: those of the
    defined functions reachable from [roots] through one or more direct
    calls (a root itself only when one of them calls it). Each equals
    its value in the full computation, since a summary reads only its
    direct callees' summaries. *)
