(* Tests for the paper's §3 proposals: lock safety, stack-overflow
   prevention, error-code checking, and the annotation database. *)

let parse src = Kc.Typecheck.check_sources [ ("t.kc", src) ]

let preamble =
  "void *kmalloc(unsigned long size, int gfp) __blocking_if_gfp_wait;\n\
   void kfree(void * __opt p);\n\
   void spin_lock(long *l);\n\
   void spin_unlock(long *l);\n\
   long spin_lock_irqsave(long *l);\n\
   void spin_unlock_irqrestore(long *l, long flags);\n\
   void schedule(void) __blocking;\n\
   int request_irq(int irq, int (*handler)(int));\n"

let p src = preamble ^ src

(* ------------------------------------------------------------------ *)
(* Locksafe                                                            *)
(* ------------------------------------------------------------------ *)

let test_lock_order_inversion () =
  let r =
    Locksafe.analyze
      (parse
         (p
            "long lock_a;\nlong lock_b;\n\
             int path1(void) { spin_lock(&lock_a); spin_lock(&lock_b); spin_unlock(&lock_b); spin_unlock(&lock_a); return 0; }\n\
             int path2(void) { spin_lock(&lock_b); spin_lock(&lock_a); spin_unlock(&lock_a); spin_unlock(&lock_b); return 0; }"))
  in
  Alcotest.(check (list (pair string string))) "AB/BA inversion found"
    [ ("lock_a", "lock_b") ]
    r.Locksafe.deadlock_cycles

let test_consistent_order_clean () =
  let r =
    Locksafe.analyze
      (parse
         (p
            "long lock_a;\nlong lock_b;\n\
             int path1(void) { spin_lock(&lock_a); spin_lock(&lock_b); spin_unlock(&lock_b); spin_unlock(&lock_a); return 0; }\n\
             int path2(void) { spin_lock(&lock_a); spin_lock(&lock_b); spin_unlock(&lock_b); spin_unlock(&lock_a); return 0; }"))
  in
  Alcotest.(check int) "no deadlock pairs" 0 (List.length r.Locksafe.deadlock_cycles);
  Alcotest.(check bool) "order edges recorded" true (List.length r.Locksafe.order_edges >= 2)

let test_interprocedural_inversion () =
  (* The second lock is taken inside a helper. *)
  let r =
    Locksafe.analyze
      (parse
         (p
            "long lock_a;\nlong lock_b;\n\
             int take_b(void) { spin_lock(&lock_b); spin_unlock(&lock_b); return 0; }\n\
             int take_a(void) { spin_lock(&lock_a); spin_unlock(&lock_a); return 0; }\n\
             int path1(void) { spin_lock(&lock_a); take_b(); spin_unlock(&lock_a); return 0; }\n\
             int path2(void) { spin_lock(&lock_b); take_a(); spin_unlock(&lock_b); return 0; }"))
  in
  Alcotest.(check (list (pair string string))) "inversion through helpers"
    [ ("lock_a", "lock_b") ]
    r.Locksafe.deadlock_cycles

let test_irq_spinlock_invariant () =
  (* A lock taken in an interrupt handler and with plain spin_lock in
     process context: the paper's Linux-specific invariant. *)
  let r =
    Locksafe.analyze
      (parse
         (p
            "long dev_lock;\n\
             int my_irq(int irq) { spin_lock(&dev_lock); spin_unlock(&dev_lock); return 0; }\n\
             int setup(void) { request_irq(3, my_irq); return 0; }\n\
             int proc_path(void) { spin_lock(&dev_lock); spin_unlock(&dev_lock); return 0; }"))
  in
  Alcotest.(check bool) "irq-unsafe acquire flagged" true
    (List.exists (fun (l, _) -> l = "dev_lock") r.Locksafe.irq_unsafe)

let test_irqsave_is_fine () =
  let r =
    Locksafe.analyze
      (parse
         (p
            "long dev_lock;\n\
             int my_irq(int irq) { spin_lock(&dev_lock); spin_unlock(&dev_lock); return 0; }\n\
             int setup(void) { request_irq(3, my_irq); return 0; }\n\
             int proc_path(void) { long f = spin_lock_irqsave(&dev_lock); spin_unlock_irqrestore(&dev_lock, f); return 0; }"))
  in
  Alcotest.(check int) "irqsave acquire is safe" 0
    (List.length
       (List.filter (fun (_, (a : Locksafe.acquire)) -> not a.Locksafe.a_in_irq) r.Locksafe.irq_unsafe))

let test_corpus_locks_consistent () =
  let prog = Kernel.Corpus.load () in
  let r = Locksafe.analyze prog in
  Alcotest.(check int) "corpus has a consistent lock order" 0
    (List.length r.Locksafe.deadlock_cycles);
  Alcotest.(check bool) "corpus locks discovered" true (List.length r.Locksafe.locks >= 3)

(* ------------------------------------------------------------------ *)
(* Stackcheck                                                          *)
(* ------------------------------------------------------------------ *)

let test_frame_sizes () =
  let prog =
    parse
      "int leafy(void) { char buf[256]; buf[0] = 1; return buf[0]; }\n\
       int tiny(int x) { return x + 1; }"
  in
  let r = Stackcheck.analyze prog in
  let frame f = Stackcheck.SM.find f r.Stackcheck.frames in
  Alcotest.(check bool) "array counted in frame" true (frame "leafy" >= 256);
  Alcotest.(check bool) "scalar-only frame is small" true (frame "tiny" < 64)

let test_depth_accumulates () =
  let prog =
    parse
      "int c(void) { char b[512]; b[0] = 1; return b[0]; }\n\
       int b_(void) { char b[1024]; b[0] = 1; return b[0] + c(); }\n\
       int a(void) { return b_(); }"
  in
  let r = Stackcheck.analyze prog in
  let depth f = Stackcheck.SM.find f r.Stackcheck.depths in
  Alcotest.(check bool) "a deeper than b_" true (depth "a" > depth "b_");
  Alcotest.(check bool) "b_ deeper than c" true (depth "b_" > depth "c");
  Alcotest.(check bool) "a >= 1536" true (depth "a" >= 1536);
  Alcotest.(check bool) "a fits 4k" true (Stackcheck.fits r ~entry:"a" ~budget:4096);
  Alcotest.(check bool) "a does not fit 1k" false (Stackcheck.fits r ~entry:"a" ~budget:1024)

let test_recursion_needs_runtime_check () =
  let prog = parse "int f(int n) { if (n <= 0) { return 0; } return f(n - 1); }" in
  let r = Stackcheck.analyze prog in
  Alcotest.(check (list string)) "recursive entry flagged" [ "f" ]
    (Stackcheck.needs_runtime_check r);
  Alcotest.(check bool) "depth unbounded" true (Stackcheck.SM.find "f" r.Stackcheck.depths = -1)

let test_fptr_calls_counted () =
  let prog =
    parse
      "int deep(int x) { char b[2048]; b[0] = x; return b[0]; }\n\
       struct ops { int (*op)(int); };\n\
       struct ops tbl = { deep };\n\
       int dispatch(void) { return tbl.op(1); }"
  in
  let r = Stackcheck.analyze prog in
  Alcotest.(check bool) "indirect call adds callee frame" true
    (Stackcheck.SM.find "dispatch" r.Stackcheck.depths >= 2048)

let test_frame_hint () =
  let prog = parse "int asmish(void) __frame_hint(512) { return 1; }" in
  let r = Stackcheck.analyze prog in
  Alcotest.(check bool) "__frame_hint added" true
    (Stackcheck.SM.find "asmish" r.Stackcheck.frames >= 512)

let test_corpus_stack_budget () =
  let prog = Kernel.Corpus.load () in
  let r = Stackcheck.analyze prog in
  Alcotest.(check bool) "corpus has no recursion" true (r.Stackcheck.recursive = Stackcheck.SS.empty);
  Alcotest.(check bool)
    (Printf.sprintf "worst chain (%d bytes) fits the 8 kB budget" r.Stackcheck.worst_bytes)
    true
    (r.Stackcheck.worst_bytes > 0 && r.Stackcheck.worst_bytes <= 8192)

(* ------------------------------------------------------------------ *)
(* Errcheck                                                            *)
(* ------------------------------------------------------------------ *)

let test_ignored_result_flagged () =
  let prog =
    parse
      (p
         "int risky(void) { return -EIO_; }\n\
          enum e { EIO_ = 5 };\n\
          int caller(void) { risky(); return 0; }")
  in
  ignore prog;
  (* enum must precede use; rebuild properly *)
  let prog =
    parse
      (p
         "int risky(int x) { if (x < 0) { return -5; } return 0; }\n\
          int caller(void) { risky(1); return 0; }")
  in
  let r = Errcheck.analyze prog in
  Alcotest.(check bool) "risky inferred as error-returning" true
    (Errcheck.SS.mem "risky" r.Errcheck.inferred);
  Alcotest.(check bool) "ignored call flagged" true
    (List.exists
       (fun (s : Errcheck.site) -> s.Errcheck.s_caller = "caller" && s.Errcheck.s_kind = `Ignored)
       r.Errcheck.violations)

let test_checked_result_clean () =
  let prog =
    parse
      (p
         "int risky(int x) { if (x < 0) { return -5; } return 0; }\n\
          int caller(void) { int r = risky(1); if (r < 0) { return r; } return 0; }")
  in
  let r = Errcheck.analyze prog in
  Alcotest.(check int) "no violations" 0 (List.length r.Errcheck.violations)

let test_propagated_result_clean () =
  let prog =
    parse
      (p
         "int risky(int x) { if (x < 0) { return -5; } return 0; }\n\
          int caller(void) { int r = risky(1); return r; }")
  in
  let r = Errcheck.analyze prog in
  Alcotest.(check int) "propagation counts as accounted" 0 (List.length r.Errcheck.violations)

let test_bound_but_never_tested () =
  let prog =
    parse
      (p
         "int risky(int x) { if (x < 0) { return -5; } return 0; }\n\
          int caller(void) { int r = risky(1); return 7; }")
  in
  let r = Errcheck.analyze prog in
  Alcotest.(check bool) "unchecked binding flagged" true
    (List.exists (fun (s : Errcheck.site) -> s.Errcheck.s_kind = `Unchecked) r.Errcheck.violations)

let test_annotation_respected () =
  let prog =
    parse
      (p
         "int api(void) __returns_err(-5, -22);\n\
          int caller(void) { api(); return 0; }")
  in
  let r = Errcheck.analyze prog in
  Alcotest.(check bool) "annotated extern counted" true
    (List.mem_assoc "api" r.Errcheck.err_functions);
  Alcotest.(check int) "its codes recorded" 2
    (List.length (List.assoc "api" r.Errcheck.err_functions));
  Alcotest.(check bool) "ignored annotated call flagged" true
    (List.length r.Errcheck.violations >= 1)

let test_corpus_errcheck () =
  let prog = Kernel.Corpus.load () in
  let r = Errcheck.analyze prog in
  Alcotest.(check bool) "corpus has error-returning functions" true
    (List.length r.Errcheck.err_functions > 10);
  Alcotest.(check bool) "corpus has call sites to them" true (r.Errcheck.sites_total > 20)

(* ------------------------------------------------------------------ *)
(* Userck                                                              *)
(* ------------------------------------------------------------------ *)

let userck_preamble =
  preamble
  ^ "int copy_to_user(void * __user d, void *s, unsigned long n) __blocking;\n\
     int copy_from_user(void *d, void * __user s, unsigned long n) __blocking;\n"

let test_userck_raw_deref_flagged () =
  let r =
    Userck.analyze
      (parse (userck_preamble ^ "int bad(char * __user p) { return *p; }"))
  in
  Alcotest.(check bool) "raw deref flagged" true
    (List.exists (fun v -> v.Userck.v_kind = Userck.Deref) r.Userck.violations)

let test_userck_copy_is_fine () =
  let r =
    Userck.analyze
      (parse
         (userck_preamble
        ^ "int good(char * __user p) { char k[8]; copy_from_user(k, p, 8); return k[0]; }"))
  in
  Alcotest.(check int) "copy helper path clean" 0 (List.length r.Userck.violations)

let test_userck_laundering_flagged () =
  let r =
    Userck.analyze
      (parse (userck_preamble ^ "char *launder(char * __user p) { char *k = (char *)p; return k; }"))
  in
  Alcotest.(check bool) "user-to-kernel flow flagged" true
    (List.exists (fun v -> v.Userck.v_kind = Userck.User_to_kernel) r.Userck.violations)

let test_userck_kernel_to_user_flagged () =
  let r =
    Userck.analyze
      (parse
         (userck_preamble
        ^ "int leak(char * __user p, char *k) { return copy_from_user(0, (char * __user)k, 1); }"))
  in
  Alcotest.(check bool) "kernel-to-user flow flagged" true
    (List.exists (fun v -> v.Userck.v_kind = Userck.Kernel_to_user) r.Userck.violations)

let test_userck_trusted_shim_ok () =
  let r =
    Userck.analyze
      (parse
         (userck_preamble
        ^ "char gbuf[16];\n\
           int shim(void) { char * __user up; __trusted { up = (char * __user)gbuf; } char k[8]; copy_from_user(k, up, 8); return k[0]; }"))
  in
  Alcotest.(check int) "trusted shim clean" 0 (List.length r.Userck.violations)

let test_userck_corpus_clean () =
  let r = Userck.analyze (Kernel.Corpus.load ()) in
  Alcotest.(check int) "corpus clean" 0 (List.length r.Userck.violations);
  Alcotest.(check bool) "user params present" true (r.Userck.user_params >= 4)

(* ------------------------------------------------------------------ *)
(* Annotation database                                                 *)
(* ------------------------------------------------------------------ *)

let test_db_add_query () =
  let db = Annotdb.create () in
  Annotdb.add db
    { Annotdb.subject = Annotdb.Func "kmalloc"; kind = "blocking_if_gfp_wait"; payload = "";
      provenance = Annotdb.Manual };
  Annotdb.add db
    { Annotdb.subject = Annotdb.Field ("vec", "data"); kind = "count"; payload = "len";
      provenance = Annotdb.Manual };
  Alcotest.(check int) "two facts" 2 (Annotdb.size db);
  Alcotest.(check int) "query by subject" 1
    (List.length (Annotdb.query db (Annotdb.Func "kmalloc")));
  Alcotest.(check int) "query field" 1
    (List.length (Annotdb.query db ~kind:"count" (Annotdb.Field ("vec", "data"))))

let test_db_manual_precedence () =
  let db = Annotdb.create () in
  let fact prov = { Annotdb.subject = Annotdb.Func "f"; kind = "blocking"; payload = "";
                    provenance = prov } in
  Annotdb.add db (fact (Annotdb.Inferred "blockstop"));
  Annotdb.add db (fact Annotdb.Manual);
  Alcotest.(check int) "deduplicated" 1 (Annotdb.size db);
  match Annotdb.query db (Annotdb.Func "f") with
  | [ f ] -> Alcotest.(check bool) "manual won" true (f.Annotdb.provenance = Annotdb.Manual)
  | _ -> Alcotest.fail "expected one fact"

let test_db_roundtrip () =
  let db = Annotdb.create () in
  Annotdb.add db
    { Annotdb.subject = Annotdb.Func "schedule"; kind = "blocking"; payload = "";
      provenance = Annotdb.Manual };
  Annotdb.add db
    { Annotdb.subject = Annotdb.Global "fs_root"; kind = "opt"; payload = "";
      provenance = Annotdb.Inferred "deputy" };
  let db2 = Annotdb.of_string (Annotdb.to_string db) in
  Alcotest.(check int) "same size" (Annotdb.size db) (Annotdb.size db2);
  Alcotest.(check string) "same serialization" (Annotdb.to_string db) (Annotdb.to_string db2)

let test_db_merge () =
  let a = Annotdb.create () and b = Annotdb.create () in
  Annotdb.add a
    { Annotdb.subject = Annotdb.Func "f"; kind = "blocking"; payload = ""; provenance = Annotdb.Manual };
  Annotdb.add b
    { Annotdb.subject = Annotdb.Func "g"; kind = "blocking"; payload = "";
      provenance = Annotdb.Inferred "blockstop" };
  Annotdb.merge ~into:a b;
  Alcotest.(check int) "merged" 2 (Annotdb.size a)

let test_db_save_load () =
  let db = Annotdb.create () in
  Annotdb.add db
    { Annotdb.subject = Annotdb.Func "msleep"; kind = "blocking"; payload = "";
      provenance = Annotdb.Manual };
  let path = Filename.temp_file "annotdb" ".tsv" in
  Annotdb.save db path;
  let db2 = Annotdb.load path in
  Sys.remove path;
  Alcotest.(check int) "file roundtrip" 1 (Annotdb.size db2)

let test_db_populate_corpus () =
  let prog = Kernel.Corpus.load () in
  let db = Annotdb.populate (Engine.Context.create prog) in
  Alcotest.(check bool) "substantial database" true (Annotdb.size db > 150);
  let blocking = Annotdb.by_kind db "blocking" in
  Alcotest.(check bool) "blocking facts inferred" true (List.length blocking > 20);
  let manual =
    List.length (List.filter (fun f -> f.Annotdb.provenance = Annotdb.Manual) db.Annotdb.facts)
  in
  let inferred = Annotdb.size db - manual in
  Alcotest.(check bool) "both manual and inferred facts" true (manual > 10 && inferred > 50);
  (* schedule is annotated by hand; its fact survives as manual. *)
  match Annotdb.query db ~kind:"blocking" (Annotdb.Func "schedule") with
  | [ f ] -> Alcotest.(check bool) "manual beats inferred" true (f.Annotdb.provenance = Annotdb.Manual)
  | l -> Alcotest.failf "expected one schedule fact, got %d" (List.length l)

let () =
  Alcotest.run "extensions"
    [
      ( "locksafe",
        [
          Alcotest.test_case "order inversion" `Quick test_lock_order_inversion;
          Alcotest.test_case "consistent order" `Quick test_consistent_order_clean;
          Alcotest.test_case "interprocedural" `Quick test_interprocedural_inversion;
          Alcotest.test_case "irq invariant" `Quick test_irq_spinlock_invariant;
          Alcotest.test_case "irqsave ok" `Quick test_irqsave_is_fine;
          Alcotest.test_case "corpus consistent" `Quick test_corpus_locks_consistent;
        ] );
      ( "stackcheck",
        [
          Alcotest.test_case "frame sizes" `Quick test_frame_sizes;
          Alcotest.test_case "depth accumulates" `Quick test_depth_accumulates;
          Alcotest.test_case "recursion" `Quick test_recursion_needs_runtime_check;
          Alcotest.test_case "fptr calls" `Quick test_fptr_calls_counted;
          Alcotest.test_case "frame hint" `Quick test_frame_hint;
          Alcotest.test_case "corpus budget" `Quick test_corpus_stack_budget;
        ] );
      ( "errcheck",
        [
          Alcotest.test_case "ignored flagged" `Quick test_ignored_result_flagged;
          Alcotest.test_case "checked clean" `Quick test_checked_result_clean;
          Alcotest.test_case "propagated clean" `Quick test_propagated_result_clean;
          Alcotest.test_case "unchecked binding" `Quick test_bound_but_never_tested;
          Alcotest.test_case "annotation respected" `Quick test_annotation_respected;
          Alcotest.test_case "corpus census" `Quick test_corpus_errcheck;
        ] );
      ( "userck",
        [
          Alcotest.test_case "raw deref" `Quick test_userck_raw_deref_flagged;
          Alcotest.test_case "copy helpers ok" `Quick test_userck_copy_is_fine;
          Alcotest.test_case "laundering" `Quick test_userck_laundering_flagged;
          Alcotest.test_case "kernel-to-user" `Quick test_userck_kernel_to_user_flagged;
          Alcotest.test_case "trusted shim" `Quick test_userck_trusted_shim_ok;
          Alcotest.test_case "corpus clean" `Quick test_userck_corpus_clean;
        ] );
      ( "annotdb",
        [
          Alcotest.test_case "add/query" `Quick test_db_add_query;
          Alcotest.test_case "manual precedence" `Quick test_db_manual_precedence;
          Alcotest.test_case "roundtrip" `Quick test_db_roundtrip;
          Alcotest.test_case "merge" `Quick test_db_merge;
          Alcotest.test_case "save/load" `Quick test_db_save_load;
          Alcotest.test_case "populate corpus" `Quick test_db_populate_corpus;
        ] );
    ]
