(** CCount pipeline driver and free census (paper §2.2, E2/E3). *)

type report = {
  instr : Rc_instrument.stats;
  types_described : int;  (** tags with pointer slots (the "32 types" census) *)
  refsafe : Refsafe.Discharge.stats option;
      (** set when the refsafe gate discharged updates before boot *)
}

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

(** Instrument [prog] in place, then {!boot_instrumented} it.
    [~refsafe:true] first runs the static refcount analysis and strips
    the [Irc_update]s it proves unobservable. *)
val ccount_boot :
  ?profile:Vm.Cost.profile ->
  ?overflow_check:bool ->
  ?refsafe:bool ->
  ?engine:Vm.Interp.engine ->
  Kc.Ir.program ->
  Vm.Interp.t * report

val pp_census : Format.formatter -> Vm.Machine.free_census -> unit
val pp : Format.formatter -> report -> unit
