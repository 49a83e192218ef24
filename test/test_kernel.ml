(* Integration tests over the mini-kernel corpus: it must parse,
   check, boot and behave under every instrumentation mode, and the
   seeded bugs must be found by the right analysis. *)

let boot_base ?(fixed_frees = true) () =
  let r = Ivy.Pipeline.booted ~fixed_frees Ivy.Pipeline.Base in
  r

(* ------------------------------------------------------------------ *)
(* Corpus sanity                                                      *)
(* ------------------------------------------------------------------ *)

let test_corpus_loads () =
  let prog = Kernel.Corpus.load () in
  Alcotest.(check bool) "has many functions" true (List.length prog.Kc.Ir.funcs > 80);
  Alcotest.(check bool) "substantial corpus" true (Kernel.Corpus.line_count () > 1500)

let test_both_variants_load () =
  ignore (Kernel.Corpus.load ~fixed_frees:true ());
  ignore (Kernel.Corpus.load ~fixed_frees:false ())

let test_boot_reaches_login () =
  let r = boot_base () in
  let lines = Vm.Machine.console_lines r.Ivy.Pipeline.interp.Vm.Interp.m in
  Alcotest.(check bool) "login prompt printed" true
    (List.exists (fun l -> l = "ivy: boot complete, login: ") lines)

let test_boot_deterministic () =
  let c1 = Ivy.Pipeline.cycles (boot_base ()) in
  let c2 = Ivy.Pipeline.cycles (boot_base ()) in
  Alcotest.(check int) "same boot cycles" c1 c2

(* ------------------------------------------------------------------ *)
(* Every mode boots and runs the workloads                            *)
(* ------------------------------------------------------------------ *)

let modes =
  [
    ("base", Ivy.Pipeline.Base);
    ("deputy", Ivy.Pipeline.Deputy);
    ("deputy-unopt", Ivy.Pipeline.Deputy_unoptimized);
    ("deputy-absint", Ivy.Pipeline.Deputy_absint);
    ("ccount-up", Ivy.Pipeline.Ccount Vm.Cost.Up);
    ("ccount-smp", Ivy.Pipeline.Ccount Vm.Cost.Smp_p4);
    ("ccount-refsafe-up", Ivy.Pipeline.Ccount_refsafe Vm.Cost.Up);
    ("ccount-refsafe-smp", Ivy.Pipeline.Ccount_refsafe Vm.Cost.Smp_p4);
    ("blockstop-guarded", Ivy.Pipeline.Blockstop_guarded);
  ]

let test_all_modes_boot () =
  List.iter
    (fun (name, mode) ->
      match Ivy.Pipeline.booted mode with
      | _ -> ()
      | exception Vm.Trap.Trap (k, msg) ->
          Alcotest.failf "%s boot trapped: %s (%s)" name (Vm.Trap.kind_to_string k) msg)
    modes

let test_workloads_agree_across_modes () =
  (* Every instrumentation preserves workload results (erasure). *)
  let probe mode entry iters =
    let r = Ivy.Pipeline.booted mode in
    fst (Ivy.Pipeline.run_entry r entry iters)
  in
  List.iter
    (fun (entry, iters) ->
      let expected = probe Ivy.Pipeline.Base entry iters in
      List.iter
        (fun (name, mode) ->
          let got = probe mode entry iters in
          Alcotest.(check int64) (Printf.sprintf "%s under %s" entry name) expected got)
        modes)
    [
      ("wl_lat_fs", 5); ("wl_lat_pipe", 10); ("wl_lat_udp", 5); ("wl_bw_mem_cp", 2);
      ("wl_lat_proc", 3); ("wl_bw_tcp", 1); ("wl_lat_mmap", 5); ("wl_module_load", 2);
    ]

(* ------------------------------------------------------------------ *)
(* Experiment-level assertions (shape, not absolute numbers)          *)
(* ------------------------------------------------------------------ *)

let test_table1_shape () =
  let rows = Ivy.Experiment.table1 () in
  List.iter
    (fun (r : Ivy.Experiment.t1_row) ->
      let id = r.Ivy.Experiment.row.Kernel.Workloads.id in
      let v = r.Ivy.Experiment.rel_perf in
      match r.Ivy.Experiment.row.Kernel.Workloads.kind with
      | Kernel.Workloads.Bw ->
          (* Bandwidth is at most mildly degraded. *)
          Alcotest.(check bool) (id ^ " bw in [0.6, 1.01]") true (v >= 0.6 && v <= 1.01)
      | Kernel.Workloads.Lat ->
          Alcotest.(check bool) (id ^ " lat in [1.0, 1.6]") true (v >= 0.99 && v <= 1.6))
    rows;
  let get id =
    (List.find
       (fun (r : Ivy.Experiment.t1_row) -> r.Ivy.Experiment.row.Kernel.Workloads.id = id)
       rows)
      .Ivy.Experiment.rel_perf
  in
  (* Crossover structure from the paper: the memory-bandwidth rows are
     essentially free, the network latency rows are the worst. *)
  Alcotest.(check bool) "bw_mem_cp ~ 1" true (get "bw_mem_cp" > 0.97);
  Alcotest.(check bool) "bw_tcp is the worst bw row" true
    (get "bw_tcp" <= get "bw_mem_cp" && get "bw_tcp" <= get "bw_pipe");
  Alcotest.(check bool) "lat_udp visibly slower" true (get "lat_udp" > 1.2);
  Alcotest.(check bool) "lat_tcp visibly slower" true (get "lat_tcp" > 1.2);
  Alcotest.(check bool) "lat_fslayer cheap" true (get "lat_fslayer" < 1.1);
  Alcotest.(check bool) "lat_syscall cheap" true (get "lat_syscall" < 1.1)

let test_e2_shape () =
  let cells = Ivy.Experiment.e2_overheads () in
  let get w p =
    (List.find
       (fun (c : Ivy.Experiment.e2_cell) ->
         c.Ivy.Experiment.workload = w && c.Ivy.Experiment.profile = p)
       cells)
      .Ivy.Experiment.overhead_pct
  in
  let fork_up = get "wl_fork" Vm.Cost.Up in
  let fork_smp = get "wl_fork" Vm.Cost.Smp_p4 in
  let mod_up = get "wl_module_load" Vm.Cost.Up in
  let mod_smp = get "wl_module_load" Vm.Cost.Smp_p4 in
  Alcotest.(check bool) "fork UP in [10,30]%" true (fork_up > 10.0 && fork_up < 30.0);
  Alcotest.(check bool) "fork SMP in [45,80]%" true (fork_smp > 45.0 && fork_smp < 80.0);
  Alcotest.(check bool) "fork SMP >> fork UP" true (fork_smp > 2.0 *. fork_up);
  Alcotest.(check bool) "module cheap on UP" true (mod_up < 15.0);
  Alcotest.(check bool) "module SMP slightly worse" true (mod_smp > mod_up && mod_smp < 20.0);
  Alcotest.(check bool) "fork dominates module overhead" true (fork_up > mod_up)

let test_e3_shape () =
  let e = Ivy.Experiment.e3_free_census () in
  Alcotest.(check int) "fixed boot has no bad frees" 0
    e.Ivy.Experiment.boot_census.Vm.Machine.bad;
  Alcotest.(check bool) "unfixed boot has bad frees" true
    (e.Ivy.Experiment.unfixed_boot_census.Vm.Machine.bad > 0);
  let pct = e.Ivy.Experiment.light_use_census.Vm.Machine.good_pct in
  Alcotest.(check bool)
    (Printf.sprintf "light use good%% in [97,99.9] (got %.1f)" pct)
    true
    (pct >= 97.0 && pct <= 99.9);
  Alcotest.(check bool) "light use does many frees" true
    (e.Ivy.Experiment.light_use_census.Vm.Machine.total_frees > 300)

let test_e4_shape () =
  let e = Ivy.Experiment.e4_blockstop () in
  Alcotest.(check int) "finds exactly the two seeded bugs" 2 e.Ivy.Experiment.bugs_found;
  Alcotest.(check bool) "has false positives without checks" true
    (e.Ivy.Experiment.false_positives > 0);
  Alcotest.(check bool) "VM ground truth verified" true e.Ivy.Experiment.ground_truth_verified;
  let remaining = Blockstop.Breport.distinct_warnings e.Ivy.Experiment.guarded in
  Alcotest.(check int) "guards silence all false positives" 2 (List.length remaining);
  List.iter
    (fun w ->
      Alcotest.(check bool) "remaining warnings are the true bugs" true
        (List.mem w e.Ivy.Experiment.true_bugs))
    remaining

let test_e1_census () =
  let e = Ivy.Experiment.e1_census () in
  Alcotest.(check bool) "no static errors in the converted corpus" true
    (e.Ivy.Experiment.deputy.Deputy.Dreport.static_errors = []);
  Alcotest.(check bool) "annotations present" true (e.Ivy.Experiment.annotations > 100);
  Alcotest.(check bool) "some trusted blocks, few" true
    (e.Ivy.Experiment.trusted_blocks >= 3 && e.Ivy.Experiment.trusted_blocks <= 20);
  let r = e.Ivy.Experiment.deputy in
  let discharge_rate =
    float_of_int r.Deputy.Dreport.discharged /. float_of_int r.Deputy.Dreport.inserted
  in
  Alcotest.(check bool) "most checks discharge statically" true (discharge_rate > 0.6)

(* ------------------------------------------------------------------ *)
(* Subsystem behaviour through the VM                                  *)
(* ------------------------------------------------------------------ *)

(* Drive a KC snippet against the booted kernel by appending a probe
   unit. *)
let probe_src name body = Printf.sprintf "long %s(int iters) { %s }" name body

let run_probe body =
  let src =
    Kernel.Corpus.sources () @ [ ("probe.kc", probe_src "probe_main" body) ]
  in
  let prog = Kc.Typecheck.check_sources src in
  let t = Vm.Builtins.boot prog in
  ignore (Vm.Interp.run t "start_kernel" []);
  Vm.Interp.run t "probe_main" [ 1L ]

let test_timer_fires () =
  (* A timer armed for 2 ticks fires on the 2nd timer interrupt. *)
  let v =
    run_probe
      "long before = watchdog_kicks;\n\
       add_timer(&watchdog_timer, 2);\n\
       raise_irq(6);\n\
       long mid = watchdog_kicks;\n\
       raise_irq(6);\n\
       long after = watchdog_kicks;\n\
       return (after - before) * 10 + (mid - before);"
  in
  Alcotest.(check int64) "fired exactly once, on the second tick" 10L v

let test_workqueue_runs () =
  let v =
    run_probe
      "long before = works_run;\n\
       queue_work(&stats_work);\n\
       run_workqueue();\n\
       return works_run - before;"
  in
  Alcotest.(check int64) "one work item ran" 1L v

let test_workqueue_handler_may_sleep () =
  (* Running the (sleeping) work from process context is fine... *)
  ignore (run_probe "queue_work(&stats_work); return run_workqueue();");
  (* ...but from interrupt context it traps. *)
  let src =
    Kernel.Corpus.sources ()
    @ [ ("probe.kc", probe_src "probe_main" "irq_enter(); queue_work(&stats_work); long r = run_workqueue(); irq_exit(); return r;") ]
  in
  let prog = Kc.Typecheck.check_sources src in
  let t = Vm.Builtins.boot prog in
  ignore (Vm.Interp.run t "start_kernel" []);
  match Vm.Interp.run t "probe_main" [ 1L ] with
  | v -> Alcotest.failf "expected trap, got %Ld" v
  | exception Vm.Trap.Trap (Vm.Trap.Blocking_in_atomic, _) -> ()

let test_procfs_reads () =
  let v =
    run_probe
      "char buf[64];\n\
       raise_irq(6);\n\
       raise_irq(6);\n\
       int n = proc_read(\"uptime\", buf, 64);\n\
       if (n <= 0) { return -1; }\n\
       // uptime is a decimal string of jiffies > 0\n\
       char c = buf[0];\n\
       if (c < '0') { return -2; }\n\
       if (c > '9') { return -3; }\n\
       return n;"
  in
  Alcotest.(check bool) "uptime rendered" true (v > 0L)

let test_procfs_unknown_entry () =
  let v = run_probe "char buf[16]; return proc_read(\"nonsense\", buf, 16);" in
  Alcotest.(check int64) "ENOENT" (-2L) v

let test_neigh_cache () =
  let v =
    run_probe
      "neigh_update(555, 777);\n\
       long hit = neigh_resolve(555);\n\
       long miss = neigh_resolve(556);\n\
       // Age it out: the gc timer drops unconfirmed entries.\n\
       int i;\n\
       for (i = 0; i < 24; i++) { raise_irq(6); }\n\
       long gone = neigh_resolve(555);\n\
       if (hit != 777) { return -1; }\n\
       if (miss != -1) { return -2; }\n\
       if (gone != -1) { return -3; }\n\
       return 1;"
  in
  Alcotest.(check int64) "learn, resolve, age out" 1L v

let test_neigh_gc_frees_clean_under_ccount () =
  (* The gc path frees neighbours and hash entries from irq context;
     under CCount every one of those frees must check good. *)
  let r = Ivy.Pipeline.booted (Ivy.Pipeline.Ccount Vm.Cost.Up) in
  ignore (Ivy.Pipeline.run_entry r "wl_idle" 30);
  let census = Ivy.Pipeline.free_census r in
  Alcotest.(check int) "no bad frees from neigh gc" 0 census.Vm.Machine.bad

let test_chrdev_zero_and_counter () =
  let v =
    run_probe
      "char buf[16];\n\
       int i;\n\
       for (i = 0; i < 16; i++) { buf[i] = 9; }\n\
       misc_dev_read(5, buf, 16); // /dev/zero\n\
       long z = buf[0] + buf[15];\n\
       misc_dev_read(7, buf, 16); // counter: monotone bytes\n\
       long c1 = buf[0];\n\
       misc_dev_read(7, buf, 16);\n\
       long c2 = buf[0];\n\
       return z * 1000 + (c2 - c1);"
  in
  (* zero device cleared the buffer; counter advanced by 16. *)
  Alcotest.(check int64) "zero + counter devices behave" 16L v

(* Seeded blockstop bugs crash the un-instrumented kernel. *)
let test_seeded_bugs_trap () =
  List.iter
    (fun entry ->
      let r = boot_base () in
      match Ivy.Pipeline.run_entry r entry 1 with
      | v, _ -> Alcotest.failf "%s: expected trap, got %Ld" entry (fst (v, 0))
      | exception Vm.Trap.Trap (Vm.Trap.Blocking_in_atomic, _) -> ())
    [ "wl_trigger_resize_bug"; "wl_trigger_irq_bug" ]

(* The guarded kernel boots and runs workloads without tripping any
   assert_not_atomic check (the guards are correct assertions). *)
let test_guards_hold_at_runtime () =
  let r = Ivy.Pipeline.booted Ivy.Pipeline.Blockstop_guarded in
  List.iter
    (fun (entry, iters) -> ignore (Ivy.Pipeline.run_entry r entry iters))
    [ ("wl_lat_fs", 5); ("wl_idle", 5); ("wl_lat_proc", 3); ("wl_lat_udp", 3) ]

(* Table-1-style invariant, pinned directly against the corpus rather
   than through the experiment driver: on the pre-fix corpus variant,
   blockstop's warning set contains exactly the two seeded true bugs
   plus warnings on the guarded functions, and applying the guard list
   silences everything except the true bugs. *)
let test_blockstop_table1_invariant () =
  let ctxt = Engine.Context.create (Kernel.Corpus.load ~fixed_frees:false ()) in
  let cg = Engine.Context.callgraph ctxt in
  let unguarded = Blockstop.Breport.analyze cg in
  let distinct = Blockstop.Breport.distinct_warnings unguarded in
  List.iter
    (fun bug ->
      Alcotest.(check bool)
        (Printf.sprintf "true bug %s->%s found without guards" (fst bug) (snd bug))
        true (List.mem bug distinct))
    Kernel.Corpus.blockstop_true_bugs;
  Alcotest.(check bool) "the unguarded run also has false positives" true
    (List.exists (fun w -> not (List.mem w Kernel.Corpus.blockstop_true_bugs)) distinct);
  let guarded = Blockstop.Breport.analyze ~guard:Kernel.Corpus.blockstop_guards cg in
  Alcotest.(check (list (pair string string)))
    "guards leave exactly the seeded true bugs"
    (List.sort compare Kernel.Corpus.blockstop_true_bugs)
    (List.sort compare (Blockstop.Breport.distinct_warnings guarded))

let () =
  Alcotest.run "kernel"
    [
      ( "corpus",
        [
          Alcotest.test_case "loads" `Quick test_corpus_loads;
          Alcotest.test_case "variants" `Quick test_both_variants_load;
          Alcotest.test_case "boot reaches login" `Quick test_boot_reaches_login;
          Alcotest.test_case "boot deterministic" `Quick test_boot_deterministic;
        ] );
      ( "modes",
        [
          Alcotest.test_case "all modes boot" `Quick test_all_modes_boot;
          Alcotest.test_case "results agree across modes" `Slow test_workloads_agree_across_modes;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table1 shape" `Slow test_table1_shape;
          Alcotest.test_case "e1 census" `Quick test_e1_census;
          Alcotest.test_case "e2 shape" `Slow test_e2_shape;
          Alcotest.test_case "e3 shape" `Quick test_e3_shape;
          Alcotest.test_case "e4 shape" `Quick test_e4_shape;
        ] );
      ( "subsystems",
        [
          Alcotest.test_case "timer fires" `Quick test_timer_fires;
          Alcotest.test_case "workqueue runs" `Quick test_workqueue_runs;
          Alcotest.test_case "work may sleep, irq may not" `Quick test_workqueue_handler_may_sleep;
          Alcotest.test_case "procfs reads" `Quick test_procfs_reads;
          Alcotest.test_case "procfs unknown" `Quick test_procfs_unknown_entry;
          Alcotest.test_case "char devices" `Quick test_chrdev_zero_and_counter;
          Alcotest.test_case "neigh cache" `Quick test_neigh_cache;
          Alcotest.test_case "neigh gc clean under ccount" `Quick test_neigh_gc_frees_clean_under_ccount;
        ] );
      ( "ground-truth",
        [
          Alcotest.test_case "seeded bugs trap" `Quick test_seeded_bugs_trap;
          Alcotest.test_case "guards hold" `Quick test_guards_hold_at_runtime;
          Alcotest.test_case "table1 invariant" `Quick test_blockstop_table1_invariant;
        ] );
    ]
