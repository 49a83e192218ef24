(** CCount pipeline driver and free census (paper §2.2, E2/E3).

    This module instruments and boots; it never discharges. The
    refsafe-thinned CCount program has one builder,
    {!Engine.Context.ccount_discharged}, and [Ivy.Pipeline] boots it
    with {!boot_instrumented}. *)

type report = {
  instr : Rc_instrument.stats;
  types_described : int;  (** tags with pointer slots (the "32 types" census) *)
}

(** The report of an instrumentation pass: its counters and the RTTI
    it built. *)
val report_of : Rc_instrument.stats -> Typeinfo.t -> report

(** Machine configuration for a CCount run: shadow counters on,
    allocations zeroed, bad frees leak (soundness-preserving). *)
val config : ?profile:Vm.Cost.profile -> ?overflow_check:bool -> unit -> Vm.Machine.config

(** Boot a CCount-enabled interpreter on a program that is already
    rc-instrumented, registering its RTTI [info] with the machine. *)
val boot_instrumented :
  ?profile:Vm.Cost.profile ->
  ?overflow_check:bool ->
  ?engine:Vm.Interp.engine ->
  info:Typeinfo.t ->
  Kc.Ir.program ->
  Vm.Interp.t

(** Instrument [prog] in place, then {!boot_instrumented} it. *)
val ccount_boot :
  ?profile:Vm.Cost.profile ->
  ?overflow_check:bool ->
  ?engine:Vm.Interp.engine ->
  Kc.Ir.program ->
  Vm.Interp.t * report

val pp_census : Format.formatter -> Vm.Machine.free_census -> unit
val pp : Format.formatter -> report -> unit
