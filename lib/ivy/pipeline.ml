(* The Ivy pipeline: load the corpus and workloads, build one engine
   context over them, boot the program view a mode names, run entry
   points, and measure deterministic cycle counts.

   Every discharged view has one builder, Engine.Context: Deputy,
   Deputy_absint and Ccount_refsafe boot the programs the context
   serves, the same ones `ivy check` reports on and the fuzz oracle
   judges. The modes no context artifact serves (full CCount, the
   unoptimized Deputy ablation and the BlockStop guards) instrument a
   shallow copy of the context's base program. *)

module C = Engine.Context

type mode =
  | Base (* no instrumentation *)
  | Deputy (* type/memory safety checks (hybrid, optimized) *)
  | Deputy_unoptimized (* ablation: no static discharge *)
  | Deputy_absint (* Facts optimizer + absint interval discharge *)
  | Ccount of Vm.Cost.profile (* refcounted frees *)
  | Ccount_refsafe of Vm.Cost.profile (* refcounted frees, refsafe-discharged updates *)
  | Blockstop_guarded (* BlockStop runtime checks compiled in *)

type run = {
  mode : mode;
  prog : Kc.Ir.program;
  interp : Vm.Interp.t;
  deputy_report : Deputy.Dreport.report option;
  absint_stats : Absint.Discharge.stats option;
  ccount_report : Ccount.Creport.report option;
  refsafe_stats : Refsafe.Discharge.stats option;
}

let mode_to_string = function
  | Base -> "base"
  | Deputy -> "deputy"
  | Deputy_unoptimized -> "deputy-unoptimized"
  | Deputy_absint -> "deputy-absint"
  | Ccount Vm.Cost.Up -> "ccount-up"
  | Ccount Vm.Cost.Smp_p4 -> "ccount-smp"
  | Ccount_refsafe Vm.Cost.Up -> "ccount-refsafe-up"
  | Ccount_refsafe Vm.Cost.Smp_p4 -> "ccount-refsafe-smp"
  | Blockstop_guarded -> "blockstop-guarded"

let make ?deputy_report ?absint_stats ?ccount_report ?refsafe_stats mode prog interp =
  { mode; prog; interp; deputy_report; absint_stats; ccount_report; refsafe_stats }

(* The view [mode] names, on a fresh machine. *)
let of_context (ctxt : C.t) (mode : mode) : run =
  let copy () = Kc.Ir.copy_program (C.program ctxt) in
  let plain ?deputy_report ?absint_stats prog =
    make ?deputy_report ?absint_stats mode prog (Vm.Builtins.boot prog)
  in
  match mode with
  | Base -> plain (C.program ctxt)
  | Deputy ->
      let prog, deputy_report = C.instrumented ctxt in
      plain ~deputy_report prog
  | Deputy_unoptimized ->
      let prog = copy () in
      plain ~deputy_report:(Deputy.Dreport.deputize ~optimize:false prog) prog
  | Deputy_absint ->
      let d = C.deputized ctxt in
      plain ~deputy_report:d.C.dreport ~absint_stats:d.C.dstats d.C.dprog
  | Ccount profile ->
      let prog = copy () in
      let interp, ccount_report = Ccount.Creport.ccount_boot ~profile prog in
      make ~ccount_report mode prog interp
  | Ccount_refsafe profile ->
      let c = C.ccount_discharged ctxt in
      make
        ~ccount_report:(Ccount.Creport.report_of c.C.cinstr c.C.cinfo)
        ~refsafe_stats:c.C.crstats mode c.C.cprog
        (Ccount.Creport.boot_instrumented ~profile ~info:c.C.cinfo c.C.cprog)
  | Blockstop_guarded ->
      let prog = copy () in
      ignore (Blockstop.Bcheck.guard_functions prog Kernel.Corpus.blockstop_guards);
      plain prog

(* Build a fresh program + VM in the given mode. [fixed_frees] picks
   the corpus variant. *)
let prepare ?(fixed_frees = true) (mode : mode) : run =
  of_context (C.create (Kernel.Workloads.load ~fixed_frees ~fresh:true ())) mode

(* Boot the kernel. *)
let boot (r : run) : unit = ignore (Vm.Interp.run r.interp Kernel.Corpus.boot_entry [])

let cycles (r : run) : int = r.interp.Vm.Interp.m.Vm.Machine.cost.Vm.Cost.cycles

(* Run an entry point and return (result, cycles spent inside). *)
let run_entry (r : run) (entry : string) (arg : int) : int64 * int =
  let before = cycles r in
  let v = Vm.Interp.run r.interp entry [ Int64.of_int arg ] in
  (v, cycles r - before)

let free_census (r : run) : Vm.Machine.free_census = Vm.Machine.free_census r.interp.Vm.Interp.m

(* Convenience: fresh run, booted. *)
let booted ?fixed_frees mode : run =
  let r = prepare ?fixed_frees mode in
  boot r;
  r
