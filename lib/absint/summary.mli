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

val inputs :
  summaries:Transfer.summaries ->
  ifaces:Transfer.ifaces ->
  Kc.Ir.fundec ->
  Transfer.summaries * Transfer.ifaces * string
(** [inputs ~summaries ~ifaces fd] is everything a fixpoint over [fd]
    reads of the two maps: both restricted to [fd]'s direct callees
    (the zone flag kept), plus a canonical rendering of those values
    and of the flag — the callee half of a per-function cache key. Equal
    values render equally whatever their sharing (no [Marshal]). A
    solve given the restricted maps cannot read anything the rendering
    does not cover. *)

type 'a memo = Kc.Ir.fundec -> inputs:string -> (unit -> 'a) -> 'a Lazy.t
(** A per-function memo: [memo fd ~inputs solve] returns a cached
    result for [fd] under [inputs], or [solve] suspended. It is called
    on the calling domain, once per function; the suspensions may be
    forced on a {!Par} pool. *)

val no_memo : 'a memo
(** Always solves. *)

val force_misses : jobs:int -> 'a Lazy.t list -> unit
(** Force the suspensions a memo left unsolved on a [jobs]-wide {!Par}
    pool (none started for fewer than two). *)

val compute :
  ?cfg_of:(Kc.Ir.fundec -> Dataflow.Cfg.t) ->
  ?jobs:int ->
  ?ifaces:Transfer.ifaces ->
  ?roots:string list ->
  ?memo:Aval.t memo ->
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
    direct callees' summaries. Each non-recursive function is solved
    over its {!inputs} and goes through [memo] (default {!no_memo});
    recursive components take their return type's range unsolved. *)
