(** The static-vs-dynamic differential oracle.

    A generated program is parsed once into one {!Engine.Context}, and
    judged on two axes over the program views that context serves — the
    same ones [ivy check] reports on:

    - {b static}: the context runs every registered analysis
      ([Ivy.Checks.run_all]); Deputy's definite static errors are read
      from the report of its Deputy-instrumented view
      ({!Engine.Context.instrumented});
    - {b dynamic}: five VM runs execute [main] — the base program
      (Base), the Deputy-instrumented view (runtime checks), the
      deputized view (the same checks thinned by the {!Absint.Discharge}
      interval stage), a CCount-instrumented copy of the base program
      (reference counting), and the context's CCount view (counter
      updates thinned by the {!Refsafe.Discharge} ownership stage) —
      recording each run's outcome and CCount's free census. No run
      parses, instruments for Deputy or discharges on its own.

    The verdict cross-checks the two sides against the program's
    ground-truth labels:

    - {e soundness}: every injected fault must be flagged by its owning
      analysis (or caught by its owning instrumentation layer);
    - {e precision witness}: a statically clean program must complete
      all five runs without traps, with equal results and a clean free
      census;
    - {e consistency}: the instrumented runs may not disagree with the
      uninstrumented one except in the fault's own failure mode;
    - {e discharge soundness}: the absint-thinned Deputy run must match
      the full Deputy run outcome exactly (same value, or same trap with
      the same message) — a removed check that would have fired shows up
      here as a [Discharge_unsound] violation;
    - {e refsafe soundness}: the refsafe-gated CCount run must match the
      full CCount run exactly (same outcome and same bad-free census) —
      a discharged counter update the census would have observed shows
      up here as a [Refsafe_unsound] violation. *)

type outcome =
  | Completed of int64  (** main returned *)
  | Trapped of Vm.Trap.kind * string

type run_results = {
  base : outcome;
  deputy : outcome;
  deputy_absint : outcome;  (** Deputy checks thinned by {!Absint.Discharge} *)
  ccount : outcome;
  bad_frees : int;  (** CCount free-census [bad] count *)
  ccount_refsafe : outcome;  (** CCount updates thinned by {!Refsafe.Discharge} *)
  rs_bad_frees : int;  (** free-census [bad] count of the gated run *)
}

type violation =
  | Frontend_error of string  (** generated source failed to parse/typecheck *)
  | Missed_fault of Fault.kind * string  (** label not flagged by its owner *)
  | False_alarm of string  (** clean program drew a Warning/Error diag or static error *)
  | Spurious_trap of string  (** a run trapped in a way the labels don't explain *)
  | Result_mismatch of string  (** instrumented and base runs disagree *)
  | Discharge_unsound of string
      (** the absint-thinned run diverged from the full Deputy run *)
  | Refsafe_unsound of string
      (** the refsafe-gated CCount run diverged from the full CCount run *)

type verdict = {
  diags : (string * Engine.Diag.t list) list;  (** per-analysis diagnostics *)
  static_errors : int;  (** Deputy definite violations *)
  runs : run_results option;  (** None when the frontend failed *)
  detected : (Fault.kind * string) list;  (** labels credited as caught *)
  violations : violation list;
}

val violation_to_string : violation -> string

val check_context : Engine.Context.t -> (Fault.kind * string) list -> verdict
(** [check_context ctxt labels] judges the program of [ctxt], carrying
    the given ground-truth labels. Every run takes its program from
    [ctxt], so a verdict builds each of the context's artifacts at most
    once and the dynamic runs build none beyond them. *)

val check_source : name:string -> string -> (Fault.kind * string) list -> verdict
(** [check_source ~name src labels] parses raw KC text once and judges
    it with {!check_context} on a fresh context. *)

val check : Prog.t -> verdict
(** Render and judge a generated program. *)

val passes : Prog.t -> bool
(** [violations = []] — the shrinker's and fuzz loop's pass predicate. *)
