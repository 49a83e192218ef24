(** Relational (interface) summaries over the program's pointer flow:
    per-function facts — currently [ret_nonnull] — computed by a small
    flow-sensitive must-non-null analysis of the statement tree,
    callees-first over the SCC condensation shared with {!Summary}. *)

val summarize_fn : Transfer.fn_iface Transfer.SM.t -> Kc.Ir.fundec -> Transfer.fn_iface
(** Summarize one function given its callees' interfaces. Exposed for
    tests. *)

val compute : ?jobs:int -> Kc.Ir.program -> Transfer.ifaces
(** Interfaces for every defined function, zone on; callees-first,
    recursive components degrade to no-claim. [jobs] parallelizes within an SCC
    level (jobs-invariant, like {!Summary.compute}). *)

val count_nonnull : Transfer.ifaces -> int
(** Number of functions with a positive [ret_nonnull] fact. *)
