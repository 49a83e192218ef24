(** Forward finite-state checkers over function CFGs: the one engine
    under BlockStop's irq depth and locksafe's held locks. The state
    moves only at calls (a monitor automaton over call events). A
    client gives a finite lattice whose [bottom] means "not reached",
    the neutral state [entry], and a [step] across one call. *)

module type STATE = sig
  include Worklist.LATTICE

  val entry : t
end

module Make (S : STATE) : sig
  type step = effect:(string -> S.t option) -> Kc.Ir.instr -> S.t -> S.t
  (** [step ~effect call s] is the state after an [Icall]. [effect g] is
      the effect of a defined [g], its exit state from [entry] ([entry]
      while that is [bottom]: not solved yet, or never returns); [None]
      for an extern. [s] is never [bottom]. *)

  val solve :
    cfg_of:(Kc.Ir.fundec -> Cfg.t) ->
    step:step ->
    Kc.Ir.program ->
    (Kc.Ir.fundec * (Kc.Ir.instr * Kc.Loc.t * S.t) list) list
  (** Solves every defined function from [entry], with its callees'
      effects computed to a fixpoint over the program, and returns each
      one (in program order) with its reachable calls in source order,
      each with the state before it. *)
end
