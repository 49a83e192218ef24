(* Differential equivalence of the two VM execution engines.

   The compiled engine's contract is strict observational equivalence
   with the tree-walk reference: identical results, identical trap
   kinds AND messages, identical cycle counts and cost counters,
   identical maximum call depth. This suite holds both engines to that
   over the kernel workloads corpus (in every instrumentation variant),
   a seeded fuzz batch, the two adversarial OOB fault shapes, and
   targeted shapes for each fused code path, so fused code is held to
   the tree-walker directly. It also locks the serial fuzz campaign
   summary byte-for-byte and the cross-domain merge of the compiler's
   site counters. *)

(* ---- observation: everything an engine run can show -------------- *)

type obs = {
  outcome : (int64, string) result; (* Ok result | Error "kind: message" *)
  cycles : int;
  loads : int;
  stores : int;
  calls : int;
  checks : int;
  rc_ops : int;
  allocs : int;
  frees : int;
  max_depth : int;
  bad_frees : int;
  fuel : int; (* fuel left *)
}

let observe (t : Vm.Interp.t) (fn : string) (args : int64 list) : obs =
  let outcome =
    match Vm.Interp.run t fn args with
    | v -> Ok v
    | exception Vm.Trap.Trap (k, m) -> Error (Vm.Trap.kind_to_string k ^ ": " ^ m)
  in
  let c = t.Vm.Interp.m.Vm.Machine.cost in
  {
    outcome;
    cycles = c.Vm.Cost.cycles;
    loads = c.Vm.Cost.loads;
    stores = c.Vm.Cost.stores;
    calls = c.Vm.Cost.calls;
    checks = c.Vm.Cost.checks_executed;
    rc_ops = c.Vm.Cost.rc_ops;
    allocs = c.Vm.Cost.allocs;
    frees = c.Vm.Cost.frees;
    max_depth = t.Vm.Interp.max_call_depth;
    bad_frees = (Vm.Machine.free_census t.Vm.Interp.m).Vm.Machine.bad;
    fuel = t.Vm.Interp.m.Vm.Machine.fuel_left;
  }

let pp_obs o =
  Printf.sprintf "{%s cyc=%d ld=%d st=%d call=%d chk=%d rc=%d al=%d fr=%d depth=%d bad=%d fuel=%d}"
    (match o.outcome with Ok v -> Printf.sprintf "ok %Ld" v | Error m -> "trap " ^ m)
    o.cycles o.loads o.stores o.calls o.checks o.rc_ops o.allocs o.frees o.max_depth o.bad_frees
    o.fuel

let check_obs_equal where (tree : obs) (compiled : obs) =
  if tree <> compiled then
    Alcotest.failf "%s: engines diverged\n  tree:     %s\n  compiled: %s" where (pp_obs tree)
      (pp_obs compiled)

(* Run [entries] on both engines over [mk_prog]-built programs (one
   fresh program per engine: instrumentation is in-place, so each
   engine gets its own identically-derived copy) and require identical
   observations at every step. *)
let differential where (mk_prog : unit -> Kc.Ir.program)
    (entries : (string * int64 list) list) =
  let run engine =
    let t = Vm.Builtins.boot ~engine (mk_prog ()) in
    List.map (fun (fn, args) -> observe t fn args) entries
  in
  let tree = run Vm.Interp.Tree in
  let compiled = run Vm.Interp.Compiled in
  List.iteri
    (fun i (tr, co) ->
      check_obs_equal (Printf.sprintf "%s[%s]" where (fst (List.nth entries i))) tr co)
    (List.combine tree compiled)

(* ---- kernel workloads corpus, all instrumentation variants -------- *)

let workload_entries : (string * int64 list) list =
  [
    (Kernel.Corpus.boot_entry, []);
    ((Kernel.Workloads.find_row "bw_mem_cp").Kernel.Workloads.entry, [ 2L ]);
    ((Kernel.Workloads.find_row "lat_udp").Kernel.Workloads.entry, [ 2L ]);
    ("wl_fork", [ 2L ]);
    ("wl_ssh_copy", [ 3L ]);
  ]

let test_workloads_base () =
  differential "base" (fun () -> Kernel.Workloads.load ~fresh:true ()) workload_entries

let test_workloads_deputy () =
  differential "deputy"
    (fun () ->
      let p = Kernel.Workloads.load ~fresh:true () in
      ignore (Deputy.Dreport.deputize ~optimize:true p);
      p)
    workload_entries

let test_workloads_deputy_absint () =
  differential "deputy+absint"
    (fun () ->
      let p = Kernel.Workloads.load ~fresh:true () in
      ignore (Deputy.Dreport.deputize ~optimize:true p);
      ignore (Absint.Discharge.run p);
      p)
    workload_entries

(* CCount instruments and needs its RTTI registered with the machine,
   so it boots through Creport's own path (with the engine threaded). *)
let test_workloads_ccount () =
  let run engine =
    let p = Kernel.Workloads.load ~fresh:true () in
    let t, _report = Ccount.Creport.ccount_boot ~engine p in
    List.map (fun (fn, args) -> observe t fn args) workload_entries
  in
  List.iteri
    (fun i (tr, co) ->
      check_obs_equal
        (Printf.sprintf "ccount[%s]" (fst (List.nth workload_entries i)))
        tr co)
    (List.combine (run Vm.Interp.Tree) (run Vm.Interp.Compiled))

(* ---- seeded fuzz batch, base + deputy variants -------------------- *)

let test_fuzz_batch () =
  for i = 0 to 14 do
    let src = Gen.Prog.render (Gen.Fuzz.case_program ~seed:11 i) in
    let parse () = Kc.Typecheck.check_sources [ ("case.kc", src) ] in
    differential (Printf.sprintf "fuzz#%d base" i) parse [ ("main", []) ];
    differential
      (Printf.sprintf "fuzz#%d deputy" i)
      (fun () ->
        let p = parse () in
        ignore (Deputy.Dreport.deputize p);
        p)
      [ ("main", []) ];
    differential
      (Printf.sprintf "fuzz#%d ccount" i)
      (fun () ->
        let p = parse () in
        ignore (Ccount.Rc_instrument.instrument_program p);
        p)
      [ ("main", []) ]
  done

(* ---- the adversarial OOB shapes ----------------------------------- *)

(* F_oob_loop (widening-sensitive) and F_oob_cast (cast-stripping
   sensitive): both engines must agree on the exact residual-check
   trap, both with the Facts optimizer alone and with the absint
   discharge stage on top. *)
let oob_shape_prog (shape : Gen.Prog.block) : Gen.Prog.t =
  {
    Gen.Prog.seed = 0;
    ops = [];
    tables = [];
    funcs =
      [
        { Gen.Prog.fid = 0; blocks = [ Gen.Prog.Arith { iters = 3; mul = 5 }; shape ] };
      ];
    faults = [ (Gen.Fault.Oob_write, "f0_") ];
  }

let test_oob_shapes () =
  List.iter
    (fun (name, shape) ->
      let src = Gen.Prog.render (oob_shape_prog shape) in
      let parse () = Kc.Typecheck.check_sources [ ("oob.kc", src) ] in
      differential (name ^ " base") parse [ ("main", []) ];
      differential (name ^ " deputy")
        (fun () ->
          let p = parse () in
          ignore (Deputy.Dreport.deputize p);
          p)
        [ ("main", []) ];
      differential (name ^ " deputy+absint")
        (fun () ->
          let p = parse () in
          ignore (Deputy.Dreport.deputize p);
          ignore (Absint.Discharge.run p);
          p)
        [ ("main", []) ];
      (* and the deputy run really does catch the fault *)
      let p = parse () in
      ignore (Deputy.Dreport.deputize p);
      let t = Vm.Builtins.boot p in
      match Vm.Interp.run t "main" [] with
      | v -> Alcotest.failf "%s: deputy run completed (%Ld), expected a check trap" name v
      | exception Vm.Trap.Trap (Vm.Trap.Check_failed, _) -> ()
      | exception Vm.Trap.Trap (k, m) ->
          Alcotest.failf "%s: wrong trap %s: %s" name (Vm.Trap.kind_to_string k) m)
    [
      ("oob-loop", Gen.Prog.F_oob_loop { bound = 5 });
      ("oob-cast", Gen.Prog.F_oob_cast { delta = 9 });
    ]

(* ---- malformed instructions --------------------------------------- *)

(* IR no frontend emits: a store through a non-pointer, and a bound
   check whose second operand reads through one. Describing either
   traps at compile time; the compiled engine must raise that trap
   only when the instruction runs, after exactly the charges the
   tree-walker makes first (the check's charge and its first
   operand's load), and must run the function normally when the
   instruction is dead. *)
let malformed_cases =
  let open Kc.Ir in
  let long n = const_int ~ty:long_type n in
  let read lv = mk_exp (Elval lv) long_type in
  [
    ("store through a non-pointer", fun _ -> Iset ((Lmem (long 8L), []), long 5L));
    ( "bound check reading through a non-pointer",
      fun (g : varinfo) ->
        Icheck (Ck_le (read (Lvar g, []), read (Lmem (long 8L), [])), "malformed bound") );
  ]

(* [x = 3] under [if (live)] becomes the malformed instruction. *)
let malformed_prog mk () =
  let open Kc.Ir in
  let p =
    Kc.Typecheck.check_sources
      [
        ( "malformed.kc",
          "long g;\nlong main(long live) { long x; x = 1; if (live) { x = 3; } return x + g; }\n"
        );
      ]
  in
  let g = fst (List.find (fun ((v : varinfo), _) -> v.vname = "g") p.globals) in
  let fd = Option.get (find_fun p "main") in
  let replaced = ref 0 in
  fd.fbody <-
    List.map
      (fun s ->
        match s.sk with
        | Sif (c, [ t ], e) ->
            incr replaced;
            { s with sk = Sif (c, [ { t with sk = Sinstr (mk g) } ], e) }
        | _ -> s)
      fd.fbody;
  Alcotest.(check int) "one branch rewritten" 1 !replaced;
  p

let test_malformed_instrs () =
  List.iter
    (fun (name, mk) ->
      (* dead first, then live, on one machine per engine *)
      differential name (malformed_prog mk) [ ("main", [ 0L ]); ("main", [ 1L ]) ];
      let t = Vm.Builtins.boot ~engine:Vm.Interp.Compiled (malformed_prog mk ()) in
      Alcotest.(check int64) (name ^ ": dead run completes") 1L (Vm.Interp.run t "main" [ 0L ]);
      match Vm.Interp.run t "main" [ 1L ] with
      | v -> Alcotest.failf "%s: live run returned %Ld, expected a trap" name v
      | exception Vm.Trap.Trap (Vm.Trap.Panic, _) -> ())
    malformed_cases

(* ---- recursion depth ---------------------------------------------- *)

let test_call_depth () =
  let src =
    "long rec(int n) { if (n <= 0) { return 0; } return rec(n - 1) + 1; }\n\
     long main(void) { return rec(40); }\n"
  in
  let parse () = Kc.Typecheck.check_sources [ ("rec.kc", src) ] in
  differential "recursion" parse [ ("main", []) ];
  let t = Vm.Builtins.boot ~engine:Vm.Interp.Compiled (parse ()) in
  ignore (Vm.Interp.run t "main" []);
  Alcotest.(check int) "max depth tracked" 42 t.Vm.Interp.max_call_depth

(* ---- fuzz campaign summary: byte-identical to the pre-change run -- *)

(* The per-case fault draw indexes into [Gen.Fault.all], so growing the
   taxonomy (6 -> 9 kinds in PR 7) legitimately reshuffles the labels:
   recompute this snapshot whenever a kind is appended.  The format
   version rides in the header (v3 since the F_oob_symbolic shape
   widened the Oob_write draw); the kind draw precedes the shape draw,
   so the per-kind counts are unchanged from v2. *)
let golden_fuzz_summary =
  "fuzz campaign (format v3): seed 7, 30 cases (8 clean, 22 faulty)\n\
   fault kind         injected   detected\n\
   oob-write                 2          2\n\
   dangling-free             3          3\n\
   atomic-block              3          3\n\
   lock-inversion            2          2\n\
   unchecked-err             1          1\n\
   user-deref                3          3\n\
   ref-leak                  2          2\n\
   double-put                4          4\n\
   put-on-error-path          2          2\n\
   oracle violations: none\n"

let test_fuzz_golden () =
  let s = Gen.Fuzz.run ~jobs:1 ~seed:7 ~count:30 () in
  Alcotest.(check string) "serial fuzz summary unchanged" golden_fuzz_summary
    (Gen.Fuzz.render_summary ~elapsed:false s)

(* ---- fused superinstruction paths --------------------------------- *)

(* Targeted shapes for the compiler's fused paths: merged
   compare+branch loop terminators over every operand pairing,
   load+binop+store bodies, copies, check+access pairs under deputy,
   and tight self-loop bodies (the whole-block spin). Each case runs
   on the tree-walker and on the compiled engine, which must agree. *)
let fused_cases : (string * string) list =
  [
    ( "spin store+inc",
      "long buf[64];\n\
       long main(void) { int i; for (i = 0; i < 64; i++) { buf[i] = 7; } return buf[63]; }\n" );
    ( "spin copy",
      "long a[32];\n\
       long b[32];\n\
       long main(void) { int i; for (i = 0; i < 32; i++) { a[i] = i * 3; } for (i = 0; i < \
       32; i++) { b[i] = a[i]; } return b[31]; }\n" );
    ( "spin load+binop+store",
      "long a[32];\n\
       long main(void) { int i; long s; s = 0; for (i = 0; i < 32; i++) { a[i] = i; } for (i \
       = 0; i < 32; i++) { s = s + a[i]; } return s; }\n" );
    ( "cmp reg-reg bound",
      "long main(void) { int i; int n; long s; n = 17; s = 0; for (i = 0; i < n; i++) { s = \
       s + 2; } return s; }\n" );
    ( "cmp inside body",
      "long main(void) { int i; long s; s = 0; for (i = 0; i < 40; i++) { if (i - (i / 3) * \
       3 == 0) { s = s + i; } } return s; }\n" );
    ( "trap mid fused run",
      "long main(void) { int i; long s; s = 100; for (i = 0; i < 10; i++) { s = s / (3 - i); \
       } return s; }\n" );
    ( "narrow widths",
      "char cbuf[16];\n\
       long main(void) { int i; long s; for (i = 0; i < 16; i++) { cbuf[i] = i * 7; } s = 0; \
       for (i = 0; i < 16; i++) { s = s + cbuf[i]; } return s; }\n" );
    (* The cases below keep their instructions in blocks that do not
       fuse whole (a call, a return value, a switch terminator), so
       each described instruction runs as a standalone micro-op. *)
    ( "call beside uops",
      "long a[16];\n\
       long b[16];\n\
       long id(long x) { return x; }\n\
       long main(void) { int i; long s; long t; s = 0; for (i = 0; i < 16; i++) { a[i] = i * \
       5; t = a[i]; b[i] = a[i]; s = s + id(t); } return s + b[15]; }\n" );
    (* [1 + 2] is not a Deputy constant, so the checks on [buf[i]]
       survive instrumentation; the return value keeps the block from
       fusing whole, so they run as standalone check micro-ops over
       register operands. The null [__opt] deref fails its check. *)
    ( "const checks, null fails",
      "long buf[8];\n\
       long main(void) { long i; long j; long * __opt p; i = 1 + 2; j = 2 + 4; buf[i] = 4; \
       buf[j] = buf[i] + 1; p = (long *) 0; return buf[j] + *p; }\n" );
    ( "const bound fails",
      "long buf[8];\n\
       long main(void) { long i; long j; i = 1 + 2; j = 4 + 5; buf[i] = 4; return buf[i] + \
       buf[j]; }\n" );
    ( "switch block sets",
      "long main(void) { long s; long k; int i; s = 0; for (i = 0; i < 6; i++) { s = s + i; k \
       = s * 2; switch (i) { case 1: s = s + 10; break; case 3: s = k - 1; break; default: s \
       = s + 1; } } return s; }\n" );
  ]

let test_fused_paths () =
  List.iter
    (fun (name, src) ->
      let parse () = Kc.Typecheck.check_sources [ ("fused.kc", src) ] in
      differential (name ^ " base") parse [ ("main", []) ];
      differential (name ^ " deputy")
        (fun () ->
          let p = parse () in
          ignore (Deputy.Dreport.deputize ~optimize:true p);
          p)
        [ ("main", []) ])
    fused_cases

(* Compile [src], run [main] on the compiled engine, and return the
   result with the compile-time site counts. *)
let opt_run src =
  Fun.protect ~finally:Vm.Compile.reset_opt_stats (fun () ->
      Vm.Compile.reset_opt_stats ();
      let t =
        Vm.Builtins.boot ~engine:Vm.Interp.Compiled
          (Kc.Typecheck.check_sources [ ("opt.kc", src) ])
      in
      let r = Vm.Interp.run t "main" [] in
      (r, Vm.Compile.opt_stats ()))

let site stats name = match List.assoc_opt name stats with Some n -> n | None -> 0

(* The fused paths must actually engage, not just agree: compiling the
   spin shape has to report block fusion, a self-loop, and the
   terminator copy that creates it. *)
let test_fusion_engages () =
  let r, stats = opt_run (List.assoc "spin store+inc" fused_cases) in
  Alcotest.(check int64) "spin result" 7L r;
  Alcotest.(check bool) "whole blocks fused" true (site stats "fuse:block" > 0);
  Alcotest.(check bool) "self-loop spin formed" true (site stats "fuse:block-loop" > 0);
  Alcotest.(check bool) "terminator copied onto back edge" true (site stats "peep:term-copy" > 0)

(* Blocks that do not fuse whole still run their described
   instructions as micro-ops, one closure each. *)
let test_uop_path_engages () =
  List.iter
    (fun name ->
      let _, stats = opt_run (List.assoc name fused_cases) in
      Alcotest.(check bool) (name ^ ": standalone uops emitted") true (site stats "spec:uop" > 0))
    [ "call beside uops"; "switch block sets" ]

(* A block that starts a whole-block fusion attempt and abandons it
   (here: it holds a call) reuses the attempt's descriptors, so each
   specialized address is compiled and counted once: [buf[i]] and
   [buf[3]] are two sites. *)
let test_sites_counted_once () =
  let r, stats =
    opt_run
      "long buf[8];\n\
       long f(long x) { return x; }\n\
       long main(void) { int i; i = 3; buf[i] = 5; f(1); return buf[3]; }\n"
  in
  Alcotest.(check int64) "result" 5L r;
  Alcotest.(check int) "spec:addr sites" 2 (site stats "spec:addr")

(* The E2 schedule's cycle count and compile-site table: boot, then
   every Table 1 entry with argument 3, on the compiled engine over the
   deputized workloads. Pinned so that a lost fusion or specialization
   shows here, not only as a missed speed floor in the bench. *)
let test_e2_sites () =
  let prog = Kernel.Workloads.load ~fresh:true () in
  ignore (Deputy.Dreport.deputize ~optimize:true prog);
  Fun.protect ~finally:Vm.Compile.reset_opt_stats (fun () ->
      Vm.Compile.reset_opt_stats ();
      let t = Vm.Builtins.boot ~engine:Vm.Interp.Compiled prog in
      ignore (Vm.Interp.run t Kernel.Corpus.boot_entry []);
      List.iter
        (fun (row : Kernel.Workloads.row) ->
          ignore (Vm.Interp.run t row.Kernel.Workloads.entry [ 3L ]))
        Kernel.Workloads.table1;
      let stats = Vm.Compile.opt_stats () in
      Alcotest.(check int) "E2 cycles" 6_816_419 t.Vm.Interp.m.Vm.Machine.cost.Vm.Cost.cycles;
      Alcotest.(check (list (pair string int)))
        "E2 site table"
        [
          ("spec:cmp-branch", 451);
          ("peep:jump-thread", 447);
          ("spec:uop", 421);
          ("peep:term-copy", 345);
          ("fuse:block", 281);
          ("spec:addr", 148);
          ("spec:alu", 121);
          ("peep:block-merge", 37);
          ("fuse:block-loop", 20);
        ]
        stats)

(* Cached code is revalidated on [fbody] identity alone: deputizing a
   program in place after it ran compiled must retire the stale code,
   so the next compiled run traps on the failing bound check exactly
   as the tree-walker does on the deputized program. *)
let test_body_swap_recompiles () =
  let parse () =
    Kc.Typecheck.check_sources [ ("swap.kc", List.assoc "const bound fails" fused_cases) ]
  in
  let deputized () =
    let p = parse () in
    ignore (Deputy.Dreport.deputize ~optimize:true p);
    p
  in
  let prog = parse () in
  let cc = Vm.Compile.of_program prog in
  let before = observe (Vm.Builtins.boot ~engine:Vm.Interp.Compiled prog) "main" [] in
  let n = Vm.Compile.compilations cc in
  ignore (Deputy.Dreport.deputize ~optimize:true prog);
  let after = observe (Vm.Builtins.boot ~engine:Vm.Interp.Compiled prog) "main" [] in
  let reference = observe (Vm.Builtins.boot ~engine:Vm.Interp.Tree (deputized ())) "main" [] in
  check_obs_equal "compiled after in-place deputize" reference after;
  Alcotest.(check bool) "deputized run differs" true (before <> after);
  Alcotest.(check bool) "swapped bodies recompiled" true (Vm.Compile.compilations cc > n)

(* ---- site counters across domains -------------------------------- *)

(* The compiler's site counters live in per-domain tables merged on
   read: a campaign compiled on two worker domains must count exactly
   what the serial campaign counts. *)
let test_counters_parallel_merge () =
  let stats_of jobs =
    Vm.Compile.reset_opt_stats ();
    ignore (Gen.Fuzz.run ~jobs ~seed:5 ~count:6 ());
    Vm.Compile.opt_stats ()
  in
  Fun.protect ~finally:Vm.Compile.reset_opt_stats (fun () ->
      let serial = stats_of 1 in
      Alcotest.(check bool) "serial counters non-empty" true (serial <> []);
      let merged = stats_of 2 in
      Alcotest.(check (list (pair string int))) "merged counters equal serial" serial merged)

(* ---- workloads memo ----------------------------------------------- *)

let test_workloads_memo () =
  let a = Kernel.Workloads.load () in
  let b = Kernel.Workloads.load () in
  Alcotest.(check bool) "memoized load shares the program" true (a == b);
  let c = Kernel.Workloads.load ~fresh:true () in
  Alcotest.(check bool) "fresh load is private" true (c != a)

let () =
  Alcotest.run "vm_compile"
    [
      ( "differential",
        [
          Alcotest.test_case "workloads base" `Quick test_workloads_base;
          Alcotest.test_case "workloads deputy" `Quick test_workloads_deputy;
          Alcotest.test_case "workloads deputy+absint" `Quick test_workloads_deputy_absint;
          Alcotest.test_case "workloads ccount" `Quick test_workloads_ccount;
          Alcotest.test_case "fuzz batch" `Quick test_fuzz_batch;
          Alcotest.test_case "oob shapes" `Quick test_oob_shapes;
          Alcotest.test_case "recursion depth" `Quick test_call_depth;
          Alcotest.test_case "malformed instructions" `Quick test_malformed_instrs;
        ] );
      ( "superinstructions",
        [
          Alcotest.test_case "fused paths" `Quick test_fused_paths;
          Alcotest.test_case "fusion engages" `Quick test_fusion_engages;
          Alcotest.test_case "standalone uops engage" `Quick test_uop_path_engages;
          Alcotest.test_case "sites counted once" `Quick test_sites_counted_once;
          Alcotest.test_case "body swap recompiles" `Quick test_body_swap_recompiles;
          Alcotest.test_case "E2 site table" `Quick test_e2_sites;
        ] );
      ( "campaign",
        [ Alcotest.test_case "serial summary byte-identical" `Quick test_fuzz_golden ] );
      ( "counters",
        [ Alcotest.test_case "parallel merge" `Quick test_counters_parallel_merge ] );
      ( "workloads",
        [ Alcotest.test_case "load memoized" `Quick test_workloads_memo ] );
    ]
