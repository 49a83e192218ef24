(** Abstract transfer functions over the KC IR, mirroring the VM's
    concrete semantics: results are normed to their static type's
    width ({!clamp}), binop signedness follows the left operand, and
    Deputy checks compare raw signed 64-bit values. *)

module SM : Map.S with type key = string

type summaries = Aval.t SM.t
(** Interprocedural summaries: function name -> abstract return value. *)

val no_summaries : summaries

type ifaces = { zone : bool }
(** What the relational layer contributes to a solve: whether the zone
    component of the product runs. Summaries and discharge given one
    value run under one domain. A callee's nullness comes from its
    summary ({!summaries}) alone. *)

val no_ifaces : ifaces
(** Zone on: the product domain. *)

val interval_only : ifaces
(** Zone off: the interval×nullness domain alone. *)

val ty_range : Kc.Ir.ty -> Interval.t
val of_ty : Kc.Ir.ty -> Aval.t

val clamp : Kc.Ir.ty -> Interval.t -> Interval.t
(** Keep an interval that provably fits the type's range, else fall
    back to the whole range (sound under the VM's wrap-around norm). *)

val norm_aval : Kc.Ir.ty -> Aval.t -> Aval.t
val truthiness : Aval.t -> bool option
val eval : Env.t -> Kc.Ir.exp -> Aval.t

val assume : ifaces:ifaces -> Env.t -> Kc.Ir.exp -> bool -> Env.t
(** Refine the environment under a branch condition being true/false.
    May return [Env.bottom] when the branch is infeasible. *)

val linear_of_exp : Env.t -> Kc.Ir.exp -> (Kc.Ir.varinfo * int64) option
(** Raw-exact linear view [raw(e) = raw(v) + k], certified non-wrapping
    by the interval component; [None] means no zone fact may be drawn
    from [e] (the PR 3 cast-soundness discipline). *)

type proof = P_interval | P_relational

val provable_why : ifaces:ifaces -> Env.t -> Kc.Ir.check -> proof option
(** Can this Deputy check never fire in any concrete state described
    by the environment — and which component of the product proved it?
    The interval rule is tried first, so [P_relational] marks checks
    only the zone could discharge. *)

val assume_check : ifaces:ifaces -> Env.t -> Kc.Ir.check -> Env.t
(** A check that executed without trapping establishes its predicate. *)

val instr : ?ifaces:ifaces -> summaries -> Env.t -> Kc.Ir.instr -> Env.t
