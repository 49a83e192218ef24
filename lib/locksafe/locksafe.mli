(** Lock safety (paper §3.1, first proposed analysis): deadlock
    freedom by consistent lock order, plus the Linux-specific
    invariant that a spinlock used in interrupt context is never taken
    in process context with interrupts enabled.

    Locks are named globals (or global.field paths) whose address
    flows into [spin_lock] / [spin_lock_irqsave]. The held locks are
    solved over each function's CFG by {!Dataflow.Fsm}; a call to a
    defined function applies its computed effect (locks released,
    then acquired), and [__acquires] / [__releases] annotations
    summarize externs. *)

module SS : Set.S with type elt = string and type t = Set.Make(String).t

(** One lock acquisition site. *)
type acquire = {
  a_lock : string;
  a_in : string;  (** containing function *)
  a_loc : Kc.Loc.t;
  a_irqsave : bool;  (** taken with interrupts disabled *)
  a_held : SS.t;  (** locks already held at this acquire *)
  a_in_irq : bool;  (** the function is reachable in interrupt context *)
}

(** Lock [to_lock] acquired while [from_lock] is held. *)
type order_edge = { from_lock : string; to_lock : string; where : Kc.Loc.t; in_fn : string }

type report = {
  locks : string list;
  acquires : acquire list;
  order_edges : order_edge list;
  deadlock_cycles : (string * string) list;
      (** pairs of locks taken in both orders somewhere *)
  irq_unsafe : (string * acquire) list;
      (** irq-context locks also taken in process context without irqsave *)
}

(** [handlers] are the program's interrupt handlers (an engine
    context's [Context.irq_handlers]); [cfg_of] supplies each defined
    function's CFG (its [Context.cfg]) and defaults to
    {!Dataflow.Cfg.build}. *)
val analyze :
  ?cfg_of:(Kc.Ir.fundec -> Dataflow.Cfg.t) -> handlers:SS.t -> Kc.Ir.program -> report
val pp : Format.formatter -> report -> unit
