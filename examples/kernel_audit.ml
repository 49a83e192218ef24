(* Kernel audit: every sound analysis over the whole mini-kernel, the
   way §3.2 imagines a research group sharing one annotation database.

   Run with:  dune exec examples/kernel_audit.exe *)

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let () =
  let prog = Kernel.Corpus.load () in
  (* One engine context: the analyses below share its call graphs and
     interrupt-handler facts, as `ivy check` does. *)
  let ctxt = Engine.Context.create prog in
  Printf.printf "auditing the mini-kernel: %d lines, %d functions\n"
    (Kernel.Corpus.line_count ())
    (List.length prog.Kc.Ir.funcs);

  banner "1. Deputy (type and memory safety)";
  let dprog = Kernel.Corpus.load () in
  let dreport = Deputy.Dreport.deputize dprog in
  Format.printf "%a@." Deputy.Dreport.pp dreport;

  banner "2. CCount (deallocation safety)";
  let cprog = Kernel.Corpus.load ~fixed_frees:false () in
  let t, creport = Ccount.Creport.ccount_boot cprog in
  ignore (Vm.Interp.run t "start_kernel" []);
  Format.printf "%a@." Ccount.Creport.pp creport;
  Format.printf "as-found kernel, boot: %a@." Ccount.Creport.pp_census
    (Vm.Machine.free_census t.Vm.Interp.m);
  List.iter
    (fun (bf : Vm.Machine.bad_free) ->
      Printf.printf "  bad free at address %d (residual refcount %d) in %s\n" bf.Vm.Machine.bf_addr
        bf.Vm.Machine.bf_rc bf.Vm.Machine.bf_where)
    t.Vm.Interp.m.Vm.Machine.bad_frees;

  banner "3. BlockStop (blocking in atomic context)";
  let cg = Engine.Context.callgraph ctxt in
  let braw = Blockstop.Breport.analyze cg in
  Format.printf "%a@." Blockstop.Breport.pp braw;
  List.iter
    (fun (f, c) ->
      let mark = if List.mem (f, c) Kernel.Corpus.blockstop_true_bugs then "BUG" else "fp?" in
      Printf.printf "  [%s] %s -> %s\n" mark f c)
    (Blockstop.Breport.distinct_warnings braw);
  let bguard = Blockstop.Breport.analyze ~guard:Kernel.Corpus.blockstop_guards cg in
  Printf.printf "after %d runtime-check guards: %d warnings (the real bugs)\n"
    (List.length Kernel.Corpus.blockstop_guards)
    (List.length (Blockstop.Breport.distinct_warnings bguard));

  banner "4. Locksafe (deadlock order, irq spinlocks)";
  let lreport = Locksafe.analyze ~handlers:(Engine.Context.irq_handlers ctxt) prog in
  Format.printf "%a@." Locksafe.pp lreport;

  banner "5. Stackcheck (stack budgets)";
  let sreport =
    Stackcheck.analyze
      ~cg:(Engine.Context.callgraph ~mode:Blockstop.Pointsto.Field_based ctxt)
      prog
  in
  Format.printf "%a@." Stackcheck.pp sreport;
  Printf.printf "boot fits 4 kB: %b\n"
    (Stackcheck.fits sreport ~entry:"start_kernel" ~budget:4096);

  banner "6. Errcheck (unchecked error returns)";
  let ereport = Errcheck.analyze prog in
  Format.printf "%a@." Errcheck.pp ereport;
  List.iteri
    (fun i s -> if i < 5 then Format.printf "  %a@." Errcheck.pp_site s)
    ereport.Errcheck.violations;

  banner "7. The shared annotation database (paper SS3.2)";
  let db = Annotdb.populate (Engine.Context.create prog) in
  Printf.printf "%d facts; sample:\n" (Annotdb.size db);
  let sample = String.split_on_char '\n' (Annotdb.to_string db) in
  List.iteri (fun i line -> if i < 12 && line <> "" then Printf.printf "  %s\n" line) sample;
  Printf.printf "... (dump the full database with `ivy annotdb`)\n"
