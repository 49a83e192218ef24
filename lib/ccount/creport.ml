(* CCount pipeline driver and free census (paper §2.2 / E2, E3). *)

module I = Kc.Ir

type report = {
  instr : Rc_instrument.stats;
  types_described : int; (* tags with pointer slots: the "32 types" census *)
}

let report_of instr info =
  { instr; types_described = List.length (Typeinfo.tags_with_pointers info) }

(* Machine configuration for a CCount run: shadow counters active,
   allocations zeroed, bad frees leak (soundness-preserving).
   [overflow_check] opts into the paper's "for total safety" trap on
   8-bit counter wrap-around. *)
let config ?(profile = Vm.Cost.Up) ?(overflow_check = false) () : Vm.Machine.config =
  {
    Vm.Machine.rc_check = true;
    zero_alloc = true;
    leak_on_bad_free = true;
    rc_overflow_check = overflow_check;
    profile;
    fuel = Vm.Machine.default_config.Vm.Machine.fuel;
  }

(* Boot a CCount-enabled interpreter on an already rc-instrumented
   program, registering its RTTI [info] with the machine. *)
let boot_instrumented ?(profile = Vm.Cost.Up) ?(overflow_check = false) ?engine ~info
    (prog : I.program) : Vm.Interp.t =
  let m = Vm.Machine.create ~config:(config ~profile ~overflow_check ()) () in
  let t = Vm.Interp.create ?engine prog m in
  Vm.Builtins.install t;
  Typeinfo.register_with info m;
  t

(* Instrument [prog] in place and boot a CCount-enabled interpreter. *)
let ccount_boot ?profile ?overflow_check ?engine (prog : I.program) : Vm.Interp.t * report =
  let stats, info = Rc_instrument.instrument_program prog in
  (boot_instrumented ?profile ?overflow_check ?engine ~info prog, report_of stats info)

let pp_census fmt (c : Vm.Machine.free_census) =
  Format.fprintf fmt "frees: %d total, %d good (%.1f%%), %d bad" c.Vm.Machine.total_frees
    c.Vm.Machine.good c.Vm.Machine.good_pct c.Vm.Machine.bad

let pp fmt (r : report) =
  Format.fprintf fmt
    "ccount: %d pointer writes instrumented, %d register writes skipped (untracked locals), %d \
     struct copies, %d memops retyped, %d alloc sites typed, %d pointer-bearing types described"
    r.instr.Rc_instrument.ptr_writes_instrumented r.instr.Rc_instrument.register_writes_skipped
    r.instr.Rc_instrument.struct_copies r.instr.Rc_instrument.memops_retyped
    r.instr.Rc_instrument.alloc_sites_typed r.types_described
