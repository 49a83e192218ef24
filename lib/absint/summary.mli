(** Interprocedural summaries: one abstract return value per defined
    function, computed callees-first over the SCC condensation of the
    direct-call graph. Recursive components degrade to the return
    type's range. *)

val direct_callees : Kc.Ir.fundec -> string list

val sccs_of : Kc.Ir.fundec list -> Kc.Ir.fundec list list
(** Tarjan condensation of the direct-call graph, callees first.
    Exposed for tests. *)

val is_self_recursive : Kc.Ir.fundec -> bool
(** Does the function call itself directly? Shared with refsafe's
    summaries. *)

val inputs :
  summaries:Transfer.summaries ->
  ifaces:Transfer.ifaces ->
  Kc.Ir.fundec ->
  Transfer.summaries * string
(** [inputs ~summaries ~ifaces fd] is everything a fixpoint over [fd]
    reads of [summaries]: the map restricted to [fd]'s direct callees,
    plus a canonical rendering of the zone flag and of those values —
    the callee half of a per-function cache key. Equal values render
    equally whatever their sharing (no [Marshal]). A solve given the
    restricted map and [ifaces] cannot read anything the rendering does
    not cover. *)

type 'a memo = Kc.Ir.fundec -> inputs:string -> (unit -> 'a) -> 'a
(** A per-function memo: [memo fd ~inputs solve] returns a cached
    result for [fd] under [inputs], or runs [solve]. *)

val no_memo : 'a memo
(** Always solves. *)

val compute :
  ?cfg_of:(Kc.Ir.fundec -> Dataflow.Cfg.t) ->
  ?ifaces:Transfer.ifaces ->
  ?roots:string list ->
  ?memo:Aval.t memo ->
  Kc.Ir.program ->
  Transfer.summaries
(** [cfg_of] lets a caller (the engine context) share memoized CFGs;
    defaults to {!Dataflow.Cfg.build}. The components are solved one at
    a time, callees first ({!sccs_of}). With [roots], only the
    summaries the fixpoints of [roots] read are solved: those of the
    defined functions reachable from [roots] through one or more direct
    calls (a root itself only when one of them calls it). Each equals
    its value in the full computation, since a summary reads only its
    direct callees' summaries. Each non-recursive function is solved
    over its {!inputs} and goes through [memo] (default {!no_memo});
    recursive components take their return type's range unsolved. *)
