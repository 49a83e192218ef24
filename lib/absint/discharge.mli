(** Second-stage check discharge: removes Deputy-inserted runtime
    checks the product-domain fixpoint proves can never fire. Runs in
    place over an already deputized (and Facts-optimized) program, so
    the combined pipeline strictly subsumes the Facts pass. *)

type fstat = {
  fname : string;
  seen : int;  (** residual checks entering this pass *)
  proved : int;  (** ... removed by the product domain *)
  proved_iv : int;  (** ... by the interval component alone *)
  proved_rel : int;  (** ... only with the zone's relational facts *)
  iterations : int;  (** fixpoint iterations; 0 when [seen = 0] (no fixpoint runs) *)
  widen_points : int;  (** 0 when [seen = 0] *)
}

type stats = { fstats : fstat list }

val checks_seen : stats -> int
val checks_proved : stats -> int

val checks_proved_iv : stats -> int
(** Checks the interval rule alone discharged. *)

val checks_proved_rel : stats -> int
(** Checks only the relational zone component could discharge. *)

val rate : stats -> float
(** Percentage of residual checks proved (0 when none were seen). *)

type verdict
(** What discharge proved in one function, free of IR values: the
    ordinals of the proved checks among the body's checks (in
    {!Kc.Ir.iter_instrs} order) with their proof kinds, plus the
    function's {!fstat}. It carries over to any body with the same
    checks in the same order, such as a re-parse of the same source. *)

val residual_roots : Kc.Ir.program -> string list
(** The defined functions that hold at least one check, in program
    order: the only functions {!run} runs a fixpoint on, so the
    [~roots] of the summaries it needs ({!Summary.compute}). *)

val run :
  ?summaries:Transfer.summaries ->
  ?ifaces:Transfer.ifaces ->
  ?memo:verdict Summary.memo ->
  Kc.Ir.program ->
  stats
(** [ifaces] (default {!Transfer.no_ifaces}, the product domain) is
    the domain of both the summaries and every per-function fixpoint;
    [~ifaces:]{!Transfer.interval_only} runs the interval-only stage.
    Without [summaries], only those of {!residual_roots} and their
    direct callees are computed. A given [summaries] must cover at
    least those. Each function that holds a check is solved over its
    {!Summary.inputs} through [memo] (default {!Summary.no_memo}).
    Verdicts are applied in place, in program order. *)

val render_stats : stats -> string
(** The per-function table; functions with no residual check show [-]
    for iterations and widening points. *)
