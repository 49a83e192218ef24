(* Timed calls into the layers, shared by the workloads. Span names are
   the per-layer metric names: the prefix is the lib/ module. *)

module Ctx = Engine.Context
module P = Blockstop.Pointsto

let parse sources =
  Span.count "kc.parses" 1;
  Span.time "kc.frontend_ms" (fun () -> Kc.Typecheck.check_sources sources)

let create prog = Span.time "engine.create_ms" (fun () -> Ctx.create ~jobs:1 prog)

let builds_of ctxt artifact =
  List.fold_left
    (fun acc (s : Ctx.stat) -> if s.Ctx.artifact = artifact then acc + s.Ctx.builds else acc)
    0 (Ctx.stats ctxt)

let absint_counts (d : Ctx.deputized) =
  let st = d.Ctx.dstats in
  Span.count "absint.checks_seen" (Absint.Discharge.checks_seen st);
  Span.count "absint.proved_iv" (Absint.Discharge.checks_proved_iv st);
  Span.count "absint.proved_rel" (Absint.Discharge.checks_proved_rel st)

(* [Ivy.Checks.run_all], which is what [ivy check] calls. Traced, the
   artifacts it needs are first requested one getter at a time in
   dependency order, so each getter builds only its own artifact and
   the checks then run over warm artifacts. *)
let check ctxt =
  if not !Span.tracing then Ivy.Checks.run_all ctxt
  else begin
    Span.time "blockstop.ms" (fun () ->
        ignore (Ctx.blocking ctxt);
        ignore (Ctx.callgraph ~mode:P.Field_based ctxt);
        ignore (Ctx.irq_handlers ctxt));
    Span.time "dataflow.cfg_ms" (fun () ->
        List.iter
          (fun (fd : Kc.Ir.fundec) -> ignore (Ctx.cfg ctxt fd.Kc.Ir.fname))
          (Ctx.program ctxt).Kc.Ir.funcs);
    Span.time "absint.relsum_ms" (fun () -> ignore (Ctx.relsum_ifaces ctxt));
    Span.time "absint.summaries_ms" (fun () -> ignore (Ctx.absint_summaries ctxt));
    let built = builds_of ctxt "deputized(absint)" in
    let d = Span.time "absint.discharge_ms" (fun () -> Ctx.deputized ctxt) in
    if builds_of ctxt "deputized(absint)" > built then begin
      (* The getter instruments, Facts-optimizes and discharges a copy;
         replay the first two on another copy to split them off. *)
      let _, r =
        Span.replay (fun () ->
            Span.time "deputy.instrument_ms" (fun () ->
                ignore (Deputy.Dreport.deputize (Kc.Ir.copy_program (Ctx.program ctxt)))))
      in
      Span.add "absint.discharge_ms" (-.r);
      absint_counts d
    end;
    Span.time "refsafe.summaries_ms" (fun () -> ignore (Ctx.refsafe_summaries ctxt));
    Span.time "ccount.view_ms" (fun () -> ignore (Ctx.ccount_discharged ctxt));
    Span.time "ivy.checks_ms" (fun () -> Ivy.Checks.run_all ctxt)
  end

let cycles (t : Vm.Interp.t) = t.Vm.Interp.m.Vm.Machine.cost.Vm.Cost.cycles

let vm_counts (t : Vm.Interp.t) =
  Span.count "vm.cycles" (cycles t);
  Span.count "vm.checks_executed" t.Vm.Interp.m.Vm.Machine.cost.Vm.Cost.checks_executed

let boot ?engine prog = Span.time "vm.boot_ms" (fun () -> Vm.Builtins.boot ?engine prog)

(* [Ccount.Creport.ccount_boot], split into its instrument, refsafe
   and machine set-up calls. *)
let ccount_boot ~refsafe prog =
  let _, info =
    Span.time "ccount.view_ms" (fun () -> Ccount.Rc_instrument.instrument_program prog)
  in
  if refsafe then Span.time "refsafe.summaries_ms" (fun () -> ignore (Refsafe.Discharge.run prog));
  Span.time "vm.boot_ms" (fun () ->
      let m = Vm.Machine.create ~config:(Ccount.Creport.config ()) () in
      let t = Vm.Interp.create prog m in
      Vm.Builtins.install t;
      Ccount.Typeinfo.register_with info m;
      t)

let exec t entry args = Span.time "vm.exec_ms" (fun () -> Vm.Interp.run t entry args)
