(** Atomic-region analysis: interrupt-disable depth solved over each
    function's CFG by {!Dataflow.Fsm} (spin_lock / local_irq_disable
    increment it, saturating at [cap]; the unlock / enable calls
    decrement it; a call to a defined function applies its effect, the
    drop below the entry depth and the rise after it), and the closure
    of which functions can be *entered* in atomic context (interrupt
    handlers and functions called from atomic sites). A call that may
    block from an atomic point is a warning. *)

module SS : Set.S with type elt = string and type t = Set.Make(String).t

type warning = {
  w_in : string;  (** function containing the call *)
  w_callee : string;
  w_loc : Kc.Loc.t;
  w_via : Callgraph.via;
  w_entry_atomic : bool;  (** atomic because the whole function is *)
  w_witness : string list;  (** chain to a blocking leaf *)
}

(** Functions registered via [request_irq]. *)
val irq_handlers : Kc.Ir.program -> SS.t

type result = {
  warnings : warning list;
  atomic_entry : SS.t;
  handlers : SS.t;
}

(** [cfg_of] supplies each defined function's CFG (an engine context's
    [Context.cfg]); it defaults to {!Dataflow.Cfg.build}. *)
val analyze : ?cfg_of:(Kc.Ir.fundec -> Dataflow.Cfg.t) -> Blocking.t -> result
