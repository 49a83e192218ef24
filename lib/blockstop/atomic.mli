(** Atomic-region analysis: interrupt-disable depth solved over each
    function's CFG by {!Dataflow.Fsm} (spin_lock / local_irq_disable
    increment it, saturating at [cap]; the unlock / enable calls
    decrement it; a call to a defined function applies its effect, the
    drop below the entry depth and the rise after it), and each
    function's entry depth: the largest depth at any call to it, [cap]
    for an interrupt handler (interrupt context lasts the whole handler,
    and an entry at [cap] stays there), 0 for a guarded function. A
    call from a point whose depth [d] is positive is a warning when it
    may block at [d]: a may-wait allocation, an annotated blocking
    callee, or a defined callee whose threshold (the least entry depth
    at which it reaches a blocking call in the region) is at most [d].
    Guarded callees never warn. *)

module SS : Set.S with type elt = string and type t = Set.Make(String).t

type warning = {
  w_in : string;  (** function containing the call *)
  w_callee : string;
  w_loc : Kc.Loc.t;
  w_via : Callgraph.via;
  w_witness : string list;  (** chain to a blocking leaf *)
}

(** The depth at which the count is lost (4). *)
val cap : int

(** Functions registered via [request_irq]. *)
val irq_handlers : Kc.Ir.program -> SS.t

type result = { warnings : warning list; handlers : SS.t }

(** [cfg_of] supplies each defined function's CFG (an engine context's
    [Context.cfg]); it defaults to {!Dataflow.Cfg.build}. *)
val analyze : ?cfg_of:(Kc.Ir.fundec -> Dataflow.Cfg.t) -> Blocking.t -> result
