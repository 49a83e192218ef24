(* Dedicated locksafe suite (previously only exercised through
   test_extensions.ml): lock-order inversion and the irq-spinlock
   invariant, positive and clean, plus the engine-level diagnostic
   contract (`ivy check` reports a deadlock as an Error). *)

let parse src = Kc.Typecheck.check_sources [ ("t.kc", src) ]

let preamble =
  "void spin_lock(long *l);\n\
   void spin_unlock(long *l);\n\
   long spin_lock_irqsave(long *l);\n\
   void spin_unlock_irqrestore(long *l, long flags);\n\
   int request_irq(int irq, int (*handler)(int));\n"

let p src = preamble ^ src

(* Locksafe over an engine context's interrupt-handler facts, as
   [ivy check] runs it. *)
let locksafe prog =
  Locksafe.analyze ~handlers:(Engine.Context.irq_handlers (Engine.Context.create prog)) prog

(* ---- positive: bugs the analysis must report ---- *)

let test_inversion_flagged () =
  let r =
    locksafe
      (parse
         (p
            "long la;\nlong lb;\n\
             int one(void) { spin_lock(&la); spin_lock(&lb); spin_unlock(&lb); spin_unlock(&la); return 0; }\n\
             int two(void) { spin_lock(&lb); spin_lock(&la); spin_unlock(&la); spin_unlock(&lb); return 0; }"))
  in
  Alcotest.(check (list (pair string string))) "AB/BA pair reported"
    [ ("la", "lb") ] r.Locksafe.deadlock_cycles

let test_same_function_inversion_flagged () =
  (* both orders inside a single function body *)
  let r =
    locksafe
      (parse
         (p
            "long la;\nlong lb;\n\
             int seq(void) {\n\
             \  spin_lock(&la); spin_lock(&lb); spin_unlock(&lb); spin_unlock(&la);\n\
             \  spin_lock(&lb); spin_lock(&la); spin_unlock(&la); spin_unlock(&lb);\n\
             \  return 0; }"))
  in
  Alcotest.(check (list (pair string string))) "sequential inversion reported"
    [ ("la", "lb") ] r.Locksafe.deadlock_cycles

let test_irq_unsafe_flagged () =
  let r =
    locksafe
      (parse
         (p
            "long dl;\n\
             int handler(int irq) { spin_lock(&dl); spin_unlock(&dl); return 0; }\n\
             int setup(void) { request_irq(1, handler); return 0; }\n\
             int proc(void) { spin_lock(&dl); spin_unlock(&dl); return 0; }"))
  in
  Alcotest.(check bool) "plain spin_lock of an irq lock reported" true
    (List.exists (fun (l, _) -> l = "dl") r.Locksafe.irq_unsafe)

let test_wrapper_inversion_flagged () =
  (* [two] takes lb through an unannotated wrapper, then la *)
  let r =
    locksafe
      (parse
         (p
            "long la;\nlong lb;\n\
             void take_b(void) { spin_lock(&lb); }\n\
             int one(void) { spin_lock(&la); spin_lock(&lb); spin_unlock(&lb); spin_unlock(&la); return 0; }\n\
             int two(void) { take_b(); spin_lock(&la); spin_unlock(&la); spin_unlock(&lb); return 0; }"))
  in
  Alcotest.(check (list (pair string string))) "inversion through the wrapper reported"
    [ ("la", "lb") ] r.Locksafe.deadlock_cycles

let test_loop_carried_inversion_flagged () =
  (* each round takes la while still holding the previous round's lb *)
  let r =
    locksafe
      (parse
         (p
            "long la;\nlong lb;\n\
             int chain(int n) {\n\
             \  int i;\n\
             \  for (i = 0; i < n; i++) {\n\
             \    spin_lock(&la);\n\
             \    if (i > 0) { spin_unlock(&lb); }\n\
             \    spin_lock(&lb);\n\
             \    spin_unlock(&la);\n\
             \  }\n\
             \  if (n > 0) { spin_unlock(&lb); }\n\
             \  return 0; }"))
  in
  Alcotest.(check (list (pair string string))) "loop-carried inversion reported"
    [ ("la", "lb") ] r.Locksafe.deadlock_cycles

(* ---- clean: correct locking draws no report ---- *)

let test_consistent_order_clean () =
  let r =
    locksafe
      (parse
         (p
            "long la;\nlong lb;\n\
             int one(void) { spin_lock(&la); spin_lock(&lb); spin_unlock(&lb); spin_unlock(&la); return 0; }\n\
             int two(void) { spin_lock(&la); spin_lock(&lb); spin_unlock(&lb); spin_unlock(&la); return 0; }"))
  in
  Alcotest.(check int) "no deadlock pairs" 0 (List.length r.Locksafe.deadlock_cycles);
  Alcotest.(check int) "no irq-unsafe acquires" 0 (List.length r.Locksafe.irq_unsafe)

let test_wrapper_pair_clean () =
  (* lb is released by a wrapper before la is taken *)
  let r =
    locksafe
      (parse
         (p
            "long la;\nlong lb;\n\
             void take_b(void) { spin_lock(&lb); }\n\
             void drop_b(void) { spin_unlock(&lb); }\n\
             int one(void) { spin_lock(&la); take_b(); drop_b(); spin_unlock(&la); return 0; }\n\
             int two(void) { take_b(); drop_b(); spin_lock(&la); spin_unlock(&la); return 0; }"))
  in
  Alcotest.(check int) "no order edge from lb" 0
    (List.length (List.filter (fun (e : Locksafe.order_edge) -> e.Locksafe.from_lock = "lb") r.Locksafe.order_edges));
  Alcotest.(check int) "no deadlock pairs" 0 (List.length r.Locksafe.deadlock_cycles)

let test_irqsave_clean () =
  let r =
    locksafe
      (parse
         (p
            "long dl;\n\
             int handler(int irq) { spin_lock(&dl); spin_unlock(&dl); return 0; }\n\
             int setup(void) { request_irq(1, handler); return 0; }\n\
             int proc(void) { long f = spin_lock_irqsave(&dl); spin_unlock_irqrestore(&dl, f); return 0; }"))
  in
  Alcotest.(check int) "irqsave acquire not reported" 0
    (List.length (List.filter (fun (_, (a : Locksafe.acquire)) -> not a.Locksafe.a_in_irq) r.Locksafe.irq_unsafe))

(* ---- engine contract: severity and wording of the diag ---- *)

let test_engine_diag_is_error () =
  let prog =
    parse
      (p
         "long la;\nlong lb;\n\
          int one(void) { spin_lock(&la); spin_lock(&lb); spin_unlock(&lb); spin_unlock(&la); return 0; }\n\
          int two(void) { spin_lock(&lb); spin_lock(&la); spin_unlock(&la); spin_unlock(&lb); return 0; }")
  in
  let diags = Ivy.Checks.run_all ~only:[ "locksafe" ] (Engine.Context.create prog) in
  let ds = List.assoc "locksafe" diags in
  Alcotest.(check bool) "deadlock surfaces as an Error diag" true
    (List.exists
       (fun (d : Engine.Diag.t) ->
         d.Engine.Diag.severity = Engine.Diag.Error
         && d.Engine.Diag.analysis = "locksafe")
       ds)

let () =
  Alcotest.run "locksafe"
    [
      ( "positive",
        [
          Alcotest.test_case "cross-function inversion" `Quick test_inversion_flagged;
          Alcotest.test_case "same-function inversion" `Quick test_same_function_inversion_flagged;
          Alcotest.test_case "irq-unsafe acquire" `Quick test_irq_unsafe_flagged;
          Alcotest.test_case "wrapper inversion" `Quick test_wrapper_inversion_flagged;
          Alcotest.test_case "loop-carried inversion" `Quick test_loop_carried_inversion_flagged;
        ] );
      ( "clean",
        [
          Alcotest.test_case "consistent order" `Quick test_consistent_order_clean;
          Alcotest.test_case "irqsave" `Quick test_irqsave_clean;
          Alcotest.test_case "wrapper pair" `Quick test_wrapper_pair_clean;
        ] );
      ("engine", [ Alcotest.test_case "error severity" `Quick test_engine_diag_is_error ]);
    ]
