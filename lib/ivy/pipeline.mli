(** The Ivy pipeline: load the mini-kernel corpus and the benchmark
    workloads, build one {!Engine.Context} over them, boot the program
    view an instrumentation mode names on the VM and run entry points
    under the deterministic cycle cost model.

    Each discharged view has one builder, the context: [Deputy],
    [Deputy_absint] and [Ccount_refsafe] boot the programs it serves
    ({!Engine.Context.instrumented}, {!Engine.Context.deputized},
    {!Engine.Context.ccount_discharged}), the same ones [ivy check]
    reports on and the fuzz oracle judges. [Ccount],
    [Deputy_unoptimized] and [Blockstop_guarded] instrument a shallow
    copy of the context's base program.

    This is the main entry point for downstream users:

    {[
      let r = Ivy.Pipeline.booted Ivy.Pipeline.Deputy in
      let result, cycles = Ivy.Pipeline.run_entry r "wl_lat_udp" 50 in
      ...
    ]} *)

(** Instrumentation applied to the program before it runs. *)
type mode =
  | Base  (** no instrumentation *)
  | Deputy  (** type/memory-safety checks, statically optimized *)
  | Deputy_unoptimized  (** ablation: every generated check stays at run time *)
  | Deputy_absint
      (** Deputy plus the {!Absint.Discharge} second stage: interval
          facts remove further provably-redundant checks *)
  | Ccount of Vm.Cost.profile  (** refcounted free checking, UP or SMP cost profile *)
  | Ccount_refsafe of Vm.Cost.profile
      (** CCount with the {!Refsafe.Discharge} gate: statically
          unobservable counter updates are stripped before boot *)
  | Blockstop_guarded  (** the BlockStop runtime-check guards compiled in *)

type run = {
  mode : mode;
  prog : Kc.Ir.program;  (** the (possibly instrumented) program *)
  interp : Vm.Interp.t;  (** the booted interpreter *)
  deputy_report : Deputy.Dreport.report option;  (** present in Deputy modes *)
  absint_stats : Absint.Discharge.stats option;  (** present in Deputy_absint mode *)
  ccount_report : Ccount.Creport.report option;  (** present in Ccount modes *)
  refsafe_stats : Refsafe.Discharge.stats option;  (** present in Ccount_refsafe modes *)
}

val mode_to_string : mode -> string

(** [of_context ctxt mode] boots [mode]'s view of [ctxt]'s program on
    a fresh machine, without running any entry point. The views the
    context serves are shared, not copied: execution never mutates a
    program. *)
val of_context : Engine.Context.t -> mode -> run

(** {!of_context} on a fresh context over the corpus and workloads.
    [fixed_frees] (default true) selects the corpus variant after the
    paper's free fixes. *)
val prepare : ?fixed_frees:bool -> mode -> run

(** Run [start_kernel]. *)
val boot : run -> unit

(** Total cycles spent so far on this run's machine. *)
val cycles : run -> int

(** [run_entry r entry arg] calls the KC function [entry] with the
    integer argument [arg]; returns its result and the cycles spent
    inside the call. *)
val run_entry : run -> string -> int -> int64 * int

val free_census : run -> Vm.Machine.free_census

(** [prepare] followed by [boot]. *)
val booted : ?fixed_frees:bool -> mode -> run
