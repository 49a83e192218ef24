(* Tests for BlockStop: call-graph construction, points-to precision,
   blocking propagation, atomic-region warnings, runtime checks, and
   agreement with VM ground truth. *)

module SS = Set.Make (String)

let parse src = Kc.Typecheck.check_sources [ ("t.kc", src) ]

let preamble =
  "void *kmalloc(unsigned long size, int gfp) __blocking_if_gfp_wait;\n\
   void kfree(void * __opt p);\n\
   void printk(char * __nullterm fmt, ...);\n\
   void spin_lock(long *l);\n\
   void spin_unlock(long *l);\n\
   void local_irq_disable(void);\n\
   void local_irq_enable(void);\n\
   void schedule(void) __blocking;\n\
   void msleep(int ms) __blocking;\n\
   int copy_to_user(void *d, void *s, unsigned long n) __blocking;\n\
   void assert_not_atomic(void);\n\
   int request_irq(int irq, int (*handler)(int));\n\
   int raise_irq(int irq);\n"

let p src = preamble ^ src

(* BlockStop over an engine context's call graph, as [ivy check] runs
   it (type-based by default). *)
let analyze ?mode ?guard src =
  let ctxt = Engine.Context.create (parse src) in
  Blockstop.Breport.analyze ?guard (Engine.Context.callgraph ?mode ctxt)

let warn_pairs r = Blockstop.Breport.distinct_warnings r

(* ------------------------------------------------------------------ *)
(* Call graph                                                          *)
(* ------------------------------------------------------------------ *)

let test_direct_edges () =
  let prog = parse (p "int g(void) { return 1; }\nint f(void) { return g(); }") in
  let cg = Blockstop.Callgraph.build prog in
  let callees = Blockstop.Callgraph.callees cg "f" in
  Alcotest.(check int) "one callee" 1 (List.length callees);
  Alcotest.(check string) "g called" "g" (List.hd callees).Blockstop.Callgraph.callee

let test_reachability () =
  let prog =
    parse (p "int c(void) { return 1; }\nint b(void) { return c(); }\nint a(void) { return b(); }\nint lone(void) { return 0; }")
  in
  let cg = Blockstop.Callgraph.build prog in
  let reach = Blockstop.Callgraph.reachable cg ~from:"a" in
  Alcotest.(check bool) "c reachable from a" true (SS.mem "c" reach);
  Alcotest.(check bool) "lone not reachable" false (SS.mem "lone" reach)

let fptr_src =
  p
    "int quiet(int x) { return x; }\n\
     int sleepy(int x) { schedule(); return x; }\n\
     struct ops { int (*op)(int); };\n\
     struct ops quiet_ops = { quiet };\n\
     struct ops sleepy_ops = { sleepy };\n\
     int call_quiet(void) { return quiet_ops.op(1); }\n"

let test_type_based_pointsto_conservative () =
  let prog = parse fptr_src in
  let cg = Blockstop.Callgraph.build ~mode:Blockstop.Pointsto.Type_based prog in
  let callees =
    Blockstop.Callgraph.callees cg "call_quiet"
    |> List.map (fun (e : Blockstop.Callgraph.edge) -> e.Blockstop.Callgraph.callee)
    |> List.sort compare
  in
  (* Type-based: both quiet and sleepy match the signature. *)
  Alcotest.(check (list string)) "both targets" [ "quiet"; "sleepy" ] callees

let test_field_based_pointsto_precise () =
  let prog = parse fptr_src in
  let cg = Blockstop.Callgraph.build ~mode:Blockstop.Pointsto.Field_based prog in
  let callees =
    Blockstop.Callgraph.callees cg "call_quiet"
    |> List.map (fun (e : Blockstop.Callgraph.edge) -> e.Blockstop.Callgraph.callee)
    |> List.sort compare
  in
  (* Field-based: the op field only ever holds quiet/sleepy — both
     structs share the field, so both remain; a distinct field name
     would separate them. Here both ops structs use the same field, so
     precision equals type-based. *)
  Alcotest.(check (list string)) "field targets" [ "quiet"; "sleepy" ] callees

let test_field_based_separates_distinct_fields () =
  let src =
    p
      "int quiet(int x) { return x; }\n\
       int sleepy(int x) { schedule(); return x; }\n\
       struct ops { int (*fast_op)(int); int (*slow_op)(int); };\n\
       struct ops tbl = { quiet, sleepy };\n\
       int call_fast(void) { return tbl.fast_op(1); }\n"
  in
  let prog = parse src in
  let cg = Blockstop.Callgraph.build ~mode:Blockstop.Pointsto.Field_based prog in
  let callees =
    Blockstop.Callgraph.callees cg "call_fast"
    |> List.map (fun (e : Blockstop.Callgraph.edge) -> e.Blockstop.Callgraph.callee)
  in
  Alcotest.(check (list string)) "only quiet" [ "quiet" ] callees

(* ------------------------------------------------------------------ *)
(* Blocking propagation                                                *)
(* ------------------------------------------------------------------ *)

let test_blocking_propagates () =
  let prog =
    parse
      (p
         "int leaf(void) { schedule(); return 0; }\n\
          int mid(void) { return leaf(); }\n\
          int top(void) { return mid(); }\n\
          int clean(void) { return 1; }")
  in
  let cg = Blockstop.Callgraph.build prog in
  let bl = Blockstop.Blocking.compute cg in
  List.iter
    (fun f -> Alcotest.(check bool) (f ^ " blocking") true (Blockstop.Blocking.is_blocking bl f))
    [ "schedule"; "leaf"; "mid"; "top" ];
  Alcotest.(check bool) "clean not blocking" false (Blockstop.Blocking.is_blocking bl "clean")

let test_gfp_atomic_not_blocking () =
  let prog =
    parse
      (p
         "int alloc_atomic(void) { int *x = kmalloc(8, 0); kfree(x); return 0; }\n\
          int alloc_wait(void) { int *x = kmalloc(8, 1); kfree(x); return 0; }")
  in
  let cg = Blockstop.Callgraph.build prog in
  let bl = Blockstop.Blocking.compute cg in
  Alcotest.(check bool) "GFP_ATOMIC caller not blocking" false
    (Blockstop.Blocking.is_blocking bl "alloc_atomic");
  Alcotest.(check bool) "GFP_KERNEL caller blocking" true
    (Blockstop.Blocking.is_blocking bl "alloc_wait")

let test_gfp_unknown_conservative () =
  let prog =
    parse (p "int alloc_var(int gfp) { int *x = kmalloc(8, gfp); kfree(x); return 0; }")
  in
  let cg = Blockstop.Callgraph.build prog in
  let bl = Blockstop.Blocking.compute cg in
  Alcotest.(check bool) "unknown gfp conservative" true
    (Blockstop.Blocking.is_blocking bl "alloc_var")

let test_witness_chain () =
  let prog =
    parse
      (p "int leaf(void) { schedule(); return 0; }\nint top(void) { return leaf(); }")
  in
  let cg = Blockstop.Callgraph.build prog in
  let bl = Blockstop.Blocking.compute cg in
  Alcotest.(check (list string)) "witness path" [ "top"; "leaf"; "schedule" ]
    (Blockstop.Blocking.witness bl "top")

(* ------------------------------------------------------------------ *)
(* Atomic-region warnings                                              *)
(* ------------------------------------------------------------------ *)

let bug_src =
  p
    "long lock;\n\
     int bad_alloc_under_lock(void) {\n\
     spin_lock(&lock);\n\
     int *x = kmalloc(64, 1);\n\
     spin_unlock(&lock);\n\
     kfree(x);\n\
     return 0; }\n"

let test_finds_real_bug () =
  let r = analyze bug_src in
  Alcotest.(check bool) "found the kmalloc-under-lock bug" true
    (List.exists (fun (f, c) -> f = "bad_alloc_under_lock" && c = "kmalloc") (warn_pairs r))

let test_ground_truth_agrees () =
  let prog = parse bug_src in
  let t = Vm.Builtins.boot prog in
  match Vm.Interp.run t "bad_alloc_under_lock" [] with
  | v -> Alcotest.failf "VM should trap, got %Ld" v
  | exception Vm.Trap.Trap (Vm.Trap.Blocking_in_atomic, _) -> ()

let test_no_warning_when_clean () =
  let r =
    analyze
      (p
         "long lock;\n\
          int fine(void) { spin_lock(&lock); int *x = kmalloc(64, 0); spin_unlock(&lock); kfree(x); schedule(); return 0; }")
  in
  Alcotest.(check (list (pair string string))) "no warnings" [] (warn_pairs r)

let test_interrupt_handler_entry_atomic () =
  let src =
    p
      "int handler(int irq) { msleep(10); return 0; }\n\
       int setup(void) { request_irq(7, handler); return 0; }\n"
  in
  let r = analyze src in
  Alcotest.(check bool) "handler flagged" true
    (List.exists (fun (f, c) -> f = "handler" && c = "msleep") (warn_pairs r));
  (* Ground truth: raising the irq traps. *)
  let prog = parse src in
  let t = Vm.Builtins.boot prog in
  ignore (Vm.Interp.run t "setup" []);
  (match Vm.Interp.run t "raise_irq_helper" [] with
  | exception Vm.Trap.Trap (Vm.Trap.Unknown_function, _) -> ()
  | _ -> ());
  match
    let t2 = Vm.Builtins.boot (parse (src ^ "int go(void) { setup(); return raise_irq(7); }")) in
    Vm.Interp.run t2 "go" []
  with
  | v -> Alcotest.failf "expected blocking-in-interrupt trap, got %Ld" v
  | exception Vm.Trap.Trap (Vm.Trap.Blocking_in_atomic, _) -> ()

let test_callee_entered_atomic () =
  (* The blocking call is in a helper only ever called under a lock. *)
  let r =
    analyze
      (p
         "long lock;\n\
          int helper(void) { schedule(); return 0; }\n\
          int caller(void) { spin_lock(&lock); helper(); spin_unlock(&lock); return 0; }")
  in
  let pairs = warn_pairs r in
  Alcotest.(check bool) "helper call flagged somewhere" true
    (List.exists (fun (_, c) -> c = "helper" || c = "schedule") pairs)

(* Control flow the atomic region must follow: state carried around a
   loop, out of a [break], and out of a wrapper that disables
   interrupts. Each program traps in the VM at its [msleep]. *)
let probe_loop =
  p
    "int f(int n) {\n\
     int i;\n\
     for (i = 0; i < n; i++) { msleep(1); local_irq_disable(); }\n\
     local_irq_enable();\n\
     return 0; }\n"

let probe_break =
  p
    "int f(int n) {\n\
     while (1) { local_irq_disable(); if (n > 0) { break; } local_irq_enable(); }\n\
     msleep(1);\n\
     return 0; }\n"

let probe_wrapper =
  p
    "void my_disable(void) { local_irq_disable(); }\n\
     int f(int n) { my_disable(); msleep(1); return 0; }\n"

let flags_msleep_in_f src () =
  Alcotest.(check (list (pair string string))) "msleep flagged in f" [ ("f", "msleep") ]
    (warn_pairs (analyze src))

(* A return while atomic leaves the function: the path after the
   branch stays non-atomic. *)
let test_return_leaves_region () =
  let r =
    analyze
      (p
         "int f(int n) {\n\
          if (n > 0) { local_irq_disable(); return 1; }\n\
          msleep(1);\n\
          return 0; }\n")
  in
  Alcotest.(check (list (pair string string))) "no warnings" [] (warn_pairs r)

(* A defined wrapper that only releases ends its caller's region:
   nothing is atomic at the [msleep], and the VM runs [f] to the end. *)
let unlock_wrapper =
  "long lk;\n\
   void my_unlock(void) { spin_unlock(&lk); }\n\
   int f(void) { spin_lock(&lk); my_unlock(); msleep(1); return 0; }\n"

let enable_wrapper =
  "void my_enable(void) { local_irq_enable(); }\n\
   int f(void) { local_irq_disable(); my_enable(); msleep(1); return 0; }\n"

let test_release_wrapper_ends_region body () =
  let src = p body in
  Alcotest.(check (list (pair string string))) "no warnings" [] (warn_pairs (analyze src));
  Alcotest.(check int64) "f completes" 0L (Vm.Interp.run (Vm.Builtins.boot (parse src)) "f" [])

(* ------------------------------------------------------------------ *)
(* False positives and runtime checks                                  *)
(* ------------------------------------------------------------------ *)

(* The paper's read_chan / flush_to_ldisk pattern: conservative
   points-to believes a blocking function is callable from an atomic
   region through a dispatch table, but that entry is never actually
   used there. *)
let fp_src =
  p
    "long lock;\n\
     int quiet_op(int x) { return x + 1; }\n\
     int sleepy_op(int x) { schedule(); return x; }\n\
     struct ldisc { int (*receive)(int); };\n\
     struct ldisc quiet_disc = { quiet_op };\n\
     struct ldisc sleepy_disc = { sleepy_op };\n\
     struct ldisc *current_disc;\n\
     int flush_in_atomic(void) {\n\
     int r;\n\
     spin_lock(&lock);\n\
     r = quiet_disc.receive(3);\n\
     spin_unlock(&lock);\n\
     return r; }\n\
     int use_sleepy(void) { return sleepy_disc.receive(4); }\n"

let test_false_positive_with_type_based () =
  let r = analyze ~mode:Blockstop.Pointsto.Type_based fp_src in
  Alcotest.(check bool) "type-based points-to reports sleepy_op" true
    (List.exists (fun (f, c) -> f = "flush_in_atomic" && c = "sleepy_op") (warn_pairs r))

let test_runtime_check_silences () =
  let r =
    analyze ~mode:Blockstop.Pointsto.Type_based ~guard:[ "sleepy_op" ] fp_src
  in
  Alcotest.(check bool) "guarded sleepy_op no longer reported" false
    (List.exists (fun (_, c) -> c = "sleepy_op") (warn_pairs r))

let test_runtime_check_enforced () =
  (* The inserted check panics if the assertion is ever violated. *)
  let prog = parse (p "int guarded(void) { return 1; }\nlong lk;\nint main(void) { spin_lock(&lk); int r = guarded(); spin_unlock(&lk); return r; }") in
  ignore (Blockstop.Bcheck.guard_functions prog [ "guarded" ]);
  let t = Vm.Builtins.boot prog in
  match Vm.Interp.run t "main" [] with
  | v -> Alcotest.failf "expected not-atomic trap, got %Ld" v
  | exception Vm.Trap.Trap (Vm.Trap.Not_atomic_check, _) -> ()

let test_runtime_check_passes_when_safe () =
  let prog = parse (p "int guarded(void) { return 42; }\nint main(void) { return guarded(); }") in
  ignore (Blockstop.Bcheck.guard_functions prog [ "guarded" ]);
  let t = Vm.Builtins.boot prog in
  Alcotest.(check int64) "check passes outside atomic" 42L (Vm.Interp.run t "main" [])

let test_field_sensitivity_removes_fp () =
  let src =
    p
      "long lock;\n\
       int quiet_op(int x) { return x + 1; }\n\
       int sleepy_op(int x) { schedule(); return x; }\n\
       struct fast_ops { int (*fast)(int); };\n\
       struct slow_ops { int (*slow)(int); };\n\
       struct fast_ops fops = { quiet_op };\n\
       struct slow_ops sops = { sleepy_op };\n\
       int flush_in_atomic(void) {\n\
       int r;\n\
       spin_lock(&lock);\n\
       r = fops.fast(3);\n\
       spin_unlock(&lock);\n\
       return r; }\n\
       int elsewhere(void) { return sops.slow(4); }\n"
  in
  let r_type = analyze ~mode:Blockstop.Pointsto.Type_based src in
  let r_field = analyze ~mode:Blockstop.Pointsto.Field_based src in
  Alcotest.(check bool) "type-based has the FP" true
    (List.exists (fun (_, c) -> c = "sleepy_op") (warn_pairs r_type));
  Alcotest.(check bool) "field-based is precise" false
    (List.exists (fun (_, c) -> c = "sleepy_op") (warn_pairs r_field))

(* ------------------------------------------------------------------ *)
(* Annotation export                                                   *)
(* ------------------------------------------------------------------ *)

let test_export_annotations () =
  let prog = parse (p "int leaf(void) { schedule(); return 0; }\nint top(void) { return leaf(); }") in
  let cg = Blockstop.Callgraph.build prog in
  let bl = Blockstop.Blocking.compute cg in
  let annots = Blockstop.Blocking.export_annotations bl in
  Alcotest.(check bool) "top exported as __blocking" true
    (List.mem ("top", "__blocking") annots)

let () =
  Alcotest.run "blockstop"
    [
      ( "callgraph",
        [
          Alcotest.test_case "direct edges" `Quick test_direct_edges;
          Alcotest.test_case "reachability" `Quick test_reachability;
          Alcotest.test_case "type-based pointsto" `Quick test_type_based_pointsto_conservative;
          Alcotest.test_case "field-based pointsto" `Quick test_field_based_pointsto_precise;
          Alcotest.test_case "field separation" `Quick test_field_based_separates_distinct_fields;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "propagation" `Quick test_blocking_propagates;
          Alcotest.test_case "gfp atomic ok" `Quick test_gfp_atomic_not_blocking;
          Alcotest.test_case "gfp unknown conservative" `Quick test_gfp_unknown_conservative;
          Alcotest.test_case "witness chain" `Quick test_witness_chain;
        ] );
      ( "atomic",
        [
          Alcotest.test_case "finds real bug" `Quick test_finds_real_bug;
          Alcotest.test_case "ground truth agrees" `Quick test_ground_truth_agrees;
          Alcotest.test_case "clean code clean" `Quick test_no_warning_when_clean;
          Alcotest.test_case "irq handler atomic" `Quick test_interrupt_handler_entry_atomic;
          Alcotest.test_case "callee entered atomic" `Quick test_callee_entered_atomic;
          Alcotest.test_case "loop-carried disable" `Quick (flags_msleep_in_f probe_loop);
          Alcotest.test_case "break out while atomic" `Quick (flags_msleep_in_f probe_break);
          Alcotest.test_case "disabling wrapper" `Quick (flags_msleep_in_f probe_wrapper);
          Alcotest.test_case "return leaves the region" `Quick test_return_leaves_region;
          Alcotest.test_case "unlock wrapper ends the region" `Quick
            (test_release_wrapper_ends_region unlock_wrapper);
          Alcotest.test_case "irq-enable wrapper ends the region" `Quick
            (test_release_wrapper_ends_region enable_wrapper);
        ] );
      ( "false-positives",
        [
          Alcotest.test_case "type-based FP" `Quick test_false_positive_with_type_based;
          Alcotest.test_case "runtime check silences" `Quick test_runtime_check_silences;
          Alcotest.test_case "runtime check enforced" `Quick test_runtime_check_enforced;
          Alcotest.test_case "runtime check passes" `Quick test_runtime_check_passes_when_safe;
          Alcotest.test_case "field sensitivity" `Quick test_field_sensitivity_removes_fp;
        ] );
      ("export", [ Alcotest.test_case "annotations" `Quick test_export_annotations ]);
    ]
