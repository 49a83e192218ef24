(** BlockStop driver and report (paper §2.3, E4). *)

module SS : Set.S with type elt = string and type t = Set.Make(String).t

type report = {
  mode : Pointsto.mode;
  edges : int;
  blocking_functions : int;
  warnings : Atomic.warning list;
  handlers : SS.t;
  guarded : SS.t;
}

(** Run the whole pipeline: points-to, call graph, blocking
    propagation, atomic-region analysis. [guard] names functions that
    carry the manual [assert_not_atomic] runtime check (excluded from
    propagation; {!Bcheck.guard_functions} compiles the checks into
    the program for the VM). [cg] supplies a prebuilt call graph (e.g.
    the engine's cached one) so callers holding one don't pay a
    rebuild; the report's [mode] then comes from the prebuilt graph. *)
val analyze :
  ?mode:Pointsto.mode ->
  ?cg:Callgraph.t ->
  ?guard:string list ->
  Kc.Ir.program ->
  report

(** Warnings deduplicated to (containing function, callee) pairs. *)
val distinct_warnings : report -> (string * string) list

val pp : Format.formatter -> report -> unit
