(* Tests for the shared analysis engine (lib/engine): artifacts are
   physically shared across repeated gets and across analyses, the
   per-points-to-mode keying is correct, the hit/build counters are
   observable, and unified diagnostics sort deterministically. *)

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

let small_prog () =
  parse
    (preamble
   ^ "long the_lock;\n\
      int helper(int x) { return x + 1; }\n\
      int leaf(void) { schedule(); return 0; }\n\
      int work(void) {\n\
      \  spin_lock(&the_lock);\n\
      \  int r = helper(1);\n\
      \  spin_unlock(&the_lock);\n\
      \  return r;\n\
      }\n\
      int start_kernel(void) { work(); leaf(); return 0; }\n")

let loc file line = Kc.Loc.make ~file ~line ~col:1

(* ------------------------------------------------------------------ *)
(* Physical sharing and per-mode keying                               *)
(* ------------------------------------------------------------------ *)

let test_artifacts_physically_shared () =
  let ctxt = Engine.Context.create (small_prog ()) in
  let cg1 = Engine.Context.callgraph ctxt in
  let cg2 = Engine.Context.callgraph ctxt in
  Alcotest.(check bool) "callgraph physically shared" true (cg1 == cg2);
  let pt1 = Engine.Context.pointsto ctxt in
  let pt2 = Engine.Context.pointsto ctxt in
  Alcotest.(check bool) "pointsto physically shared" true (pt1 == pt2);
  Alcotest.(check bool) "callgraph reuses the cached pointsto" true
    (cg1.Blockstop.Callgraph.pointsto == pt1);
  let bl1 = Engine.Context.blocking ctxt in
  let bl2 = Engine.Context.blocking ctxt in
  Alcotest.(check bool) "blocking physically shared" true (bl1 == bl2);
  Alcotest.(check bool) "blocking reuses the cached callgraph" true
    (bl1.Blockstop.Blocking.cg == cg1);
  let h1 = Engine.Context.irq_handlers ctxt in
  let h2 = Engine.Context.irq_handlers ctxt in
  Alcotest.(check bool) "irq handler facts stable" true
    (Blockstop.Atomic.SS.equal h1 h2)

let test_cfg_cached_per_function () =
  let ctxt = Engine.Context.create (small_prog ()) in
  (match (Engine.Context.cfg ctxt "work", Engine.Context.cfg ctxt "work") with
  | Some c1, Some c2 -> Alcotest.(check bool) "cfg physically shared" true (c1 == c2)
  | _ -> Alcotest.fail "cfg of a defined function should exist");
  Alcotest.(check bool) "extern has no cfg" true (Engine.Context.cfg ctxt "schedule" = None);
  Alcotest.(check bool) "unknown has no cfg" true (Engine.Context.cfg ctxt "nope" = None)

let test_per_mode_keying () =
  let ctxt = Engine.Context.create (small_prog ()) in
  let t = Engine.Context.callgraph ~mode:Blockstop.Pointsto.Type_based ctxt in
  let f = Engine.Context.callgraph ~mode:Blockstop.Pointsto.Field_based ctxt in
  Alcotest.(check bool) "modes are distinct artifacts" true (t != f);
  Alcotest.(check bool) "type-based graph carries its mode" true
    (t.Blockstop.Callgraph.pointsto.Blockstop.Pointsto.mode = Blockstop.Pointsto.Type_based);
  Alcotest.(check bool) "field-based graph carries its mode" true
    (f.Blockstop.Callgraph.pointsto.Blockstop.Pointsto.mode = Blockstop.Pointsto.Field_based);
  (* Asking again per mode returns the same physical values. *)
  Alcotest.(check bool) "type-based cached" true
    (Engine.Context.callgraph ~mode:Blockstop.Pointsto.Type_based ctxt == t);
  Alcotest.(check bool) "field-based cached" true
    (Engine.Context.callgraph ~mode:Blockstop.Pointsto.Field_based ctxt == f)

let stat ctxt name =
  match
    List.find_opt (fun (s : Engine.Context.stat) -> s.Engine.Context.artifact = name)
      (Engine.Context.stats ctxt)
  with
  | Some s -> s
  | None -> Alcotest.fail (Printf.sprintf "no stats entry for %s" name)

let test_counters_track_builds_and_hits () =
  let ctxt = Engine.Context.create (small_prog ()) in
  ignore (Engine.Context.callgraph ctxt);
  ignore (Engine.Context.callgraph ctxt);
  ignore (Engine.Context.callgraph ctxt);
  let cg = stat ctxt "callgraph(type-based)" in
  Alcotest.(check int) "one build" 1 cg.Engine.Context.builds;
  Alcotest.(check int) "two hits" 2 cg.Engine.Context.hits;
  let pt = stat ctxt "pointsto(type-based)" in
  Alcotest.(check int) "pointsto built once" 1 pt.Engine.Context.builds

(* All registered analyses over one context build the call graph
   exactly once per mode — the ISSUE's acceptance criterion, as a
   test. *)
let test_run_all_builds_once_per_mode () =
  let ctxt = Engine.Context.create (Kernel.Corpus.load ()) in
  let results = Ivy.Checks.run_all ctxt in
  Alcotest.(check int) "seven analyses ran" 7 (List.length results);
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " built once") 1 (stat ctxt name).Engine.Context.builds)
    [
      "callgraph(type-based)"; "callgraph(field-based)"; "pointsto(type-based)";
      "pointsto(field-based)"; "blocking(type-based)"; "irq-handlers";
    ];
  (* annotdb population over the same context adds hits, not builds *)
  ignore (Annotdb.populate ctxt);
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " still built once") 1
        (stat ctxt name).Engine.Context.builds)
    [ "callgraph(type-based)"; "callgraph(field-based)" ];
  Alcotest.(check bool) "field-based callgraph got a cache hit" true
    ((stat ctxt "callgraph(field-based)").Engine.Context.hits >= 1)

let test_breport_reuses_prebuilt_callgraph () =
  let prog = small_prog () in
  let ctxt = Engine.Context.create prog in
  let cg = Engine.Context.callgraph ctxt in
  let r = Blockstop.Breport.analyze cg in
  Alcotest.(check int) "edges from the prebuilt graph"
    (Blockstop.Callgraph.n_edges cg) r.Blockstop.Breport.edges;
  Alcotest.(check int) "no extra callgraph build" 1
    (stat ctxt "callgraph(type-based)").Engine.Context.builds;
  (* The report's mode is the graph's. *)
  let r2 =
    Blockstop.Breport.analyze (Engine.Context.callgraph ~mode:Blockstop.Pointsto.Field_based ctxt)
  in
  Alcotest.(check bool) "report mode comes from the prebuilt graph" true
    (r2.Blockstop.Breport.mode = Blockstop.Pointsto.Field_based)

(* ------------------------------------------------------------------ *)
(* Unified diagnostics                                                *)
(* ------------------------------------------------------------------ *)

let test_diag_sort_deterministic () =
  let d ?(severity = Engine.Diag.Warning) analysis file line msg =
    Engine.Diag.make ~severity ~analysis ~loc:(loc file line) msg
  in
  let unsorted =
    [
      d "userck" "b.kc" 9 "later file";
      d "stackcheck" "a.kc" 12 "same line, later analysis";
      d "blockstop" "a.kc" 12 "same line, earlier analysis";
      d "errcheck" "a.kc" 3 "earlier line";
      d "errcheck" "a.kc" 3 "earlier line" (* exact duplicate *);
    ]
  in
  let sorted = Engine.Diag.sort unsorted in
  let keys =
    List.map (fun (x : Engine.Diag.t) -> (x.Engine.Diag.loc.Kc.Loc.file,
                                          x.Engine.Diag.loc.Kc.Loc.line,
                                          x.Engine.Diag.analysis))
      sorted
  in
  Alcotest.(check (list (triple string int string)))
    "file, then line, then analysis; duplicates dropped"
    [
      ("a.kc", 3, "errcheck");
      ("a.kc", 12, "blockstop");
      ("a.kc", 12, "stackcheck");
      ("b.kc", 9, "userck");
    ]
    keys;
  (* Sorting is idempotent and order-insensitive. *)
  Alcotest.(check bool) "idempotent" true (Engine.Diag.sort sorted = sorted);
  Alcotest.(check bool) "input order irrelevant" true
    (Engine.Diag.sort (List.rev unsorted) = sorted)

let test_run_all_diags_sorted () =
  let ctxt = Engine.Context.create (Kernel.Corpus.load ()) in
  let results = Ivy.Checks.run_all ctxt in
  let flat = Ivy.Checks.diags results in
  Alcotest.(check bool) "flattened list is sorted" true (Engine.Diag.sort flat = flat);
  List.iter
    (fun (name, ds) ->
      Alcotest.(check bool) (name ^ " per-analysis list is sorted") true
        (Engine.Diag.sort ds = ds))
    results

let test_run_all_only_filter () =
  let ctxt = Engine.Context.create (small_prog ()) in
  let results = Ivy.Checks.run_all ~only:[ "errcheck"; "userck" ] ctxt in
  Alcotest.(check (list string)) "only the selected analyses" [ "errcheck"; "userck" ]
    (List.map fst results);
  Alcotest.check_raises "unknown analysis rejected"
    (Ivy.Checks.Unknown_analysis "nope") (fun () ->
      ignore (Ivy.Checks.run_all ~only:[ "nope" ] ctxt))

let test_diag_json () =
  let d =
    Engine.Diag.make ~severity:Engine.Diag.Error ~analysis:"userck"
      ~loc:(loc "a \"quoted\".kc" 7) ~fix_hint:"line1\nline2" "bad\tflow"
  in
  let j = Engine.Diag.to_json d in
  Alcotest.(check string) "escapes and fields"
    "{\"analysis\":\"userck\",\"severity\":\"error\",\"file\":\"a \\\"quoted\\\".kc\",\"line\":7,\"col\":1,\"message\":\"bad\\tflow\",\"fix_hint\":\"line1\\nline2\"}"
    j;
  let plain = Engine.Diag.make ~analysis:"x" ~loc:Kc.Loc.dummy "m" in
  Alcotest.(check bool) "missing hint is null" true
    (String.length (Engine.Diag.to_json plain) > 0
    && String.sub (Engine.Diag.to_json plain)
         (String.length (Engine.Diag.to_json plain) - 16) 16
       = "\"fix_hint\":null}")

(* The seeded staging drivers from the experiments, through the
   unified interface: the engine surfaces the same findings the
   standalone analyses report. *)
let test_check_finds_seeded_bugs () =
  let prog =
    parse
      (preamble
     ^ "long lock_a;\nlong lock_b;\n\
        int path1(void) { spin_lock(&lock_a); spin_lock(&lock_b); spin_unlock(&lock_b); spin_unlock(&lock_a); return 0; }\n\
        int path2(void) { spin_lock(&lock_b); spin_lock(&lock_a); spin_unlock(&lock_a); spin_unlock(&lock_b); return 0; }\n")
  in
  let ctxt = Engine.Context.create prog in
  let flat = Ivy.Checks.diags (Ivy.Checks.run_all ctxt) in
  let deadlocks =
    List.filter
      (fun (d : Engine.Diag.t) ->
        d.Engine.Diag.analysis = "locksafe" && d.Engine.Diag.severity = Engine.Diag.Error)
      flat
  in
  Alcotest.(check int) "one deadlock error through the engine" 1 (List.length deadlocks)

let () =
  Alcotest.run "engine"
    [
      ( "sharing",
        [
          Alcotest.test_case "artifacts physically shared" `Quick
            test_artifacts_physically_shared;
          Alcotest.test_case "cfg cached per function" `Quick test_cfg_cached_per_function;
          Alcotest.test_case "per-mode keying" `Quick test_per_mode_keying;
          Alcotest.test_case "counters track builds and hits" `Quick
            test_counters_track_builds_and_hits;
          Alcotest.test_case "run_all builds once per mode" `Quick
            test_run_all_builds_once_per_mode;
          Alcotest.test_case "breport reuses prebuilt callgraph" `Quick
            test_breport_reuses_prebuilt_callgraph;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "deterministic sort" `Quick test_diag_sort_deterministic;
          Alcotest.test_case "run_all output sorted" `Quick test_run_all_diags_sorted;
          Alcotest.test_case "--only filter" `Quick test_run_all_only_filter;
          Alcotest.test_case "json rendering" `Quick test_diag_json;
          Alcotest.test_case "seeded bugs via unified check" `Quick
            test_check_finds_seeded_bugs;
        ] );
    ]
