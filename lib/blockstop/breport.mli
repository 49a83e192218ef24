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

(** Blocking propagation and the atomic-region analysis over a call
    graph (an engine context's [Context.callgraph]); the report's
    [mode] is the graph's points-to mode. [guard] names functions that
    carry the manual [assert_not_atomic] runtime check (excluded from
    propagation; {!Bcheck.guard_functions} compiles the checks into
    the program for the VM). *)
val analyze : ?guard:string list -> Callgraph.t -> report

(** Warnings deduplicated to (containing function, callee) pairs. *)
val distinct_warnings : report -> (string * string) list

val pp : Format.formatter -> report -> unit
