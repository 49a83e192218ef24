(* The fuzz subsystem's own tests: the generator emits deterministic,
   well-typed, analysis-silent programs; the injector plants exactly
   one labelled fault; the differential oracle credits every fault
   kind and stays quiet on clean cases; the shrinker converges to a
   small repro while preserving the predicate. *)

let seeds n base = List.init n (fun i -> Gen.Rng.mix base i)

(* ---- rng ---- *)

let test_rng_determinism () =
  let a = Gen.Rng.create 7 and b = Gen.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Gen.Rng.next64 a) (Gen.Rng.next64 b)
  done;
  let c = Gen.Rng.create 8 in
  Alcotest.(check bool) "different seed, different stream" true
    (Gen.Rng.next64 a <> Gen.Rng.next64 c)

let test_rng_bounds () =
  let r = Gen.Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Gen.Rng.int r 7 in
    Alcotest.(check bool) "0 <= v < 7" true (v >= 0 && v < 7);
    let w = Gen.Rng.range r 2 6 in
    Alcotest.(check bool) "2 <= w <= 6" true (w >= 2 && w <= 6)
  done

(* ---- generator ---- *)

let test_render_deterministic () =
  List.iter
    (fun s ->
      let a = Gen.Prog.render (Gen.Generate.clean s) in
      let b = Gen.Prog.render (Gen.Generate.clean s) in
      Alcotest.(check string) (Printf.sprintf "seed %d renders identically" s) a b)
    (seeds 10 11)

let test_generated_well_typed () =
  List.iter
    (fun s ->
      let src = Gen.Prog.render (Gen.Generate.clean s) in
      match Kc.Typecheck.check_sources [ ("gen.kc", src) ] with
      | _ -> ()
      | exception e ->
          Alcotest.failf "seed %d does not typecheck: %s\n%s" s (Printexc.to_string e) src)
    (seeds 30 23)

let test_clean_programs_pass_oracle () =
  List.iter
    (fun s ->
      let p = Gen.Generate.clean s in
      let v = Gen.Oracle.check p in
      match v.Gen.Oracle.violations with
      | [] -> ()
      | vs ->
          Alcotest.failf "clean seed %d: %s" s
            (String.concat "; " (List.map Gen.Oracle.violation_to_string vs)))
    (seeds 12 37)

(* ---- injector + oracle ---- *)

let test_injector_labels () =
  List.iter
    (fun kind ->
      let rng = Gen.Rng.create 5 in
      let p = Gen.Inject.plant rng kind (Gen.Generate.clean 99) in
      match p.Gen.Prog.faults with
      | [ (k, fn) ] ->
          Alcotest.(check string) "label kind" (Gen.Fault.to_string kind) (Gen.Fault.to_string k);
          Alcotest.(check bool) "host is a generated function" true
            (String.length fn > 1 && fn.[0] = 'f')
      | fs -> Alcotest.failf "expected one label, got %d" (List.length fs))
    Gen.Fault.all

let test_every_fault_kind_detected () =
  List.iter
    (fun kind ->
      List.iter
        (fun s ->
          let rng = Gen.Rng.create (s + 1) in
          let p = Gen.Inject.plant rng kind (Gen.Generate.clean s) in
          let v = Gen.Oracle.check p in
          (match v.Gen.Oracle.violations with
          | [] -> ()
          | vs ->
              Alcotest.failf "%s seed %d: %s" (Gen.Fault.to_string kind) s
                (String.concat "; " (List.map Gen.Oracle.violation_to_string vs)));
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d credited" (Gen.Fault.to_string kind) s)
            1
            (List.length v.Gen.Oracle.detected))
        (seeds 3 (100 + Hashtbl.hash (Gen.Fault.to_string kind))))
    Gen.Fault.all

(* The mixed-width cast shape specifically: its guard is always true
   at runtime, so the negative index must be caught by the residual
   lower-bound check in the deputy run, and the deputy+absint run must
   behave identically (any drift is a discharge-soundness bug in the
   cast-stripping logic). *)
let test_oob_cast_shape_detected () =
  List.iter
    (fun delta ->
      let p = Gen.Generate.clean (5000 + delta) in
      let host = List.hd p.Gen.Prog.funcs in
      let funcs =
        List.map
          (fun (f : Gen.Prog.func) ->
            if f.Gen.Prog.fid = host.Gen.Prog.fid then
              { f with Gen.Prog.blocks = f.Gen.Prog.blocks @ [ Gen.Prog.F_oob_cast { delta } ] }
            else f)
          p.Gen.Prog.funcs
      in
      let p =
        {
          p with
          Gen.Prog.funcs;
          Gen.Prog.faults = [ (Gen.Fault.Oob_write, Gen.Prog.fname host.Gen.Prog.fid) ];
        }
      in
      let v = Gen.Oracle.check p in
      (match v.Gen.Oracle.violations with
      | [] -> ()
      | vs ->
          Alcotest.failf "delta %d: %s" delta
            (String.concat "; " (List.map Gen.Oracle.violation_to_string vs)));
      Alcotest.(check int)
        (Printf.sprintf "delta %d credited" delta)
        1
        (List.length v.Gen.Oracle.detected))
    [ 8; 9; 10; 11; 12 ]

(* Atomic regions that only a CFG-following BlockStop sees: each
   program's [main] traps in the base VM at the [msleep] in [f], and
   blockstop must flag [f]. *)
let atomic_probes =
  [
    ( "loop-carried disable",
      "int f(int n) {\n\
       \  int i;\n\
       \  for (i = 0; i < n; i++) { msleep(1); local_irq_disable(); }\n\
       \  local_irq_enable();\n\
       \  return 0; }\n" );
    ( "break out while atomic",
      "int f(int n) {\n\
       \  while (1) { local_irq_disable(); if (n > 0) { break; } local_irq_enable(); }\n\
       \  msleep(1);\n\
       \  return 0; }\n" );
    ( "disabling wrapper",
      "void my_disable(void) { local_irq_disable(); }\n\
       int f(int n) { my_disable(); msleep(1); return 0; }\n" );
  ]

let test_atomic_probes_detected () =
  List.iter
    (fun (what, body) ->
      let src =
        "void local_irq_disable(void);\n\
         void local_irq_enable(void);\n\
         void msleep(int ms) __blocking;\n"
        ^ body ^ "int main(void) { return f(2); }\n"
      in
      let v = Gen.Oracle.check_source ~name:"probe.kc" src [ (Gen.Fault.Atomic_block, "f") ] in
      Alcotest.(check (list string)) what []
        (List.map Gen.Oracle.violation_to_string v.Gen.Oracle.violations))
    atomic_probes

(* A summary that drops [pick]'s fall-off (which returns 0) lets absint
   discharge the lower-bound check of [a[pick(c) - 1]], which the full
   Deputy run trips: the oracle must see the two runs agree. *)
let test_fall_off_discharge_sound () =
  let src =
    "long pick(long c) { if (c) { return 1; } }\n\
     long f(long c) { long a[2]; a[0] = 7; a[1] = 9; return a[pick(c) - 1]; }\n\
     long main(void) { return f(0); }\n"
  in
  let v = Gen.Oracle.check_source ~name:"falloff.kc" src [] in
  let discharge_unsound = function Gen.Oracle.Discharge_unsound _ -> true | _ -> false in
  Alcotest.(check (list string)) "no unsound discharge" []
    (List.map Gen.Oracle.violation_to_string (List.filter discharge_unsound v.Gen.Oracle.violations))

(* ---- one analysis pass per case ---- *)

let case_context i =
  let p = Gen.Fuzz.case_program ~seed:41 i in
  Engine.Context.create (Kc.Typecheck.check_sources [ ("gen.kc", Gen.Prog.render p) ])

let builds ctxt =
  List.map
    (fun (s : Engine.Context.stat) -> (s.Engine.Context.artifact, s.Engine.Context.builds))
    (Engine.Context.stats ctxt)

let served_views =
  [ "deputy-instrumented"; "deputized(absint)"; "refsafe-summaries"; "ccount-discharged";
    "vm-compiled" ]

(* A verdict builds each served program view exactly once, and its
   dynamic runs add no build: on a context where the oracle's static
   side has already run, judging the case leaves every build count
   where it was. *)
let test_one_analysis_pass () =
  List.iter
    (fun i ->
      let labels = (Gen.Fuzz.case_program ~seed:41 i).Gen.Prog.faults in
      let ctxt = case_context i in
      ignore (Gen.Oracle.check_context ctxt labels);
      let b = builds ctxt in
      List.iter
        (fun name ->
          Alcotest.(check (option int))
            (Printf.sprintf "case %d: %s built once" i name)
            (Some 1) (List.assoc_opt name b))
        served_views;
      let warm = case_context i in
      ignore (Engine.Context.vm_compiled warm);
      ignore (Ivy.Checks.run_all warm);
      ignore (Engine.Context.instrumented warm);
      let before = builds warm in
      ignore (Gen.Oracle.check_context warm labels);
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "case %d: the verdict adds no build to a warm context" i)
        before (builds warm);
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "case %d: cold and warm contexts build the same" i)
        b before)
    (List.init 8 Fun.id)

(* ---- reference oracle ---- *)

(* The reference model: the oracle's dynamic side as it was before it
   took its programs from the case's context, kept verbatim down to its
   five fresh parses (and a sixth for Deputy's static errors), its own
   Deputy instrumentation and its own absint and refsafe solves. *)
module Ref_oracle = struct
  open Gen.Oracle

  let parse ~name src = Kc.Typecheck.check_sources [ (name, src) ]

  let run_main (interp : Vm.Interp.t) : outcome =
    match Vm.Interp.run interp "main" [] with
    | v -> Completed v
    | exception Vm.Trap.Trap (k, m) -> Trapped (k, m)

  let dynamic ~name src : run_results =
    let base =
      let p = parse ~name src in
      run_main (Vm.Builtins.boot p)
    in
    let deputy =
      let p = parse ~name src in
      ignore (Deputy.Dreport.deputize p);
      run_main (Vm.Builtins.boot p)
    in
    let deputy_absint =
      let p = parse ~name src in
      ignore (Deputy.Dreport.deputize p);
      ignore (Absint.Discharge.run p);
      run_main (Vm.Builtins.boot p)
    in
    let ccount, bad_frees =
      let p = parse ~name src in
      let interp, _report = Ccount.Creport.ccount_boot p in
      let o = run_main interp in
      (o, (Vm.Machine.free_census interp.Vm.Interp.m).Vm.Machine.bad)
    in
    let ccount_refsafe, rs_bad_frees =
      let p = parse ~name src in
      let _, info = Ccount.Rc_instrument.instrument_program p in
      ignore (Refsafe.Discharge.run p);
      let interp = Ccount.Creport.boot_instrumented ~info p in
      let o = run_main interp in
      (o, (Vm.Machine.free_census interp.Vm.Interp.m).Vm.Machine.bad)
    in
    { base; deputy; deputy_absint; ccount; bad_frees; ccount_refsafe; rs_bad_frees }

  let static_errors ~name src =
    List.length (Deputy.Dreport.deputize (parse ~name src)).Deputy.Dreport.static_errors
end

let outcome =
  Alcotest.testable
    (fun fmt (o : Gen.Oracle.outcome) ->
      match o with
      | Gen.Oracle.Completed v -> Format.fprintf fmt "completed (%Ld)" v
      | Gen.Oracle.Trapped (k, m) ->
          Format.fprintf fmt "trapped %s: %s" (Vm.Trap.kind_to_string k) m)
    ( = )

(* Over seeded campaign cases covering every fault kind, the oracle's
   runs and static-error count equal the reference's, field by field. *)
let test_matches_reference_oracle () =
  let cases = 240 in
  let seen = Hashtbl.create 16 in
  for i = 0 to cases - 1 do
    let p = Gen.Fuzz.case_program ~seed:97 i in
    List.iter (fun (k, _) -> Hashtbl.replace seen k ()) p.Gen.Prog.faults;
    let src = Gen.Prog.render p in
    let v = Gen.Oracle.check_source ~name:"gen.kc" src p.Gen.Prog.faults in
    let r = Ref_oracle.dynamic ~name:"gen.kc" src in
    let what field = Printf.sprintf "case %d: %s" i field in
    Alcotest.(check int) (what "static errors")
      (Ref_oracle.static_errors ~name:"gen.kc" src) v.Gen.Oracle.static_errors;
    match v.Gen.Oracle.runs with
    | None -> Alcotest.failf "case %d: no runs" i
    | Some n ->
        Alcotest.check outcome (what "base") r.Gen.Oracle.base n.Gen.Oracle.base;
        Alcotest.check outcome (what "deputy") r.Gen.Oracle.deputy n.Gen.Oracle.deputy;
        Alcotest.check outcome (what "deputy+absint") r.Gen.Oracle.deputy_absint
          n.Gen.Oracle.deputy_absint;
        Alcotest.check outcome (what "ccount") r.Gen.Oracle.ccount n.Gen.Oracle.ccount;
        Alcotest.(check int) (what "bad frees") r.Gen.Oracle.bad_frees n.Gen.Oracle.bad_frees;
        Alcotest.check outcome (what "ccount+refsafe") r.Gen.Oracle.ccount_refsafe
          n.Gen.Oracle.ccount_refsafe;
        Alcotest.(check int) (what "refsafe bad frees") r.Gen.Oracle.rs_bad_frees
          n.Gen.Oracle.rs_bad_frees
  done;
  List.iter
    (fun k ->
      Alcotest.(check bool) (Gen.Fault.to_string k ^ " covered") true (Hashtbl.mem seen k))
    Gen.Fault.all

(* ---- campaign driver ---- *)

let test_campaign_clean () =
  let s = Gen.Fuzz.run ~seed:7 ~count:24 () in
  Alcotest.(check int) "no failures" 0 (List.length s.Gen.Fuzz.s_failures);
  Alcotest.(check int) "clean quota" 6 s.Gen.Fuzz.s_clean;
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Gen.Fault.to_string k ^ " fully detected")
        (List.assoc k s.Gen.Fuzz.s_injected)
        (List.assoc k s.Gen.Fuzz.s_detected))
    Gen.Fault.all

let test_campaign_deterministic () =
  let a = Gen.Fuzz.run ~seed:5 ~count:12 () in
  let b = Gen.Fuzz.run ~seed:5 ~count:12 () in
  Alcotest.(check (list (pair string int)))
    "same injected census"
    (List.map (fun (k, n) -> (Gen.Fault.to_string k, n)) a.Gen.Fuzz.s_injected)
    (List.map (fun (k, n) -> (Gen.Fault.to_string k, n)) b.Gen.Fuzz.s_injected)

(* ---- shrinker ---- *)

let test_shrink_small_repro () =
  (* Plant an atomic-block fault, then minimize while the oracle still
     credits it: the repro must stay a valid counterexample-style case
     and fit the issue's 30-line budget. *)
  let rng = Gen.Rng.create 2 in
  let p = Gen.Inject.plant rng Gen.Fault.Atomic_block (Gen.Generate.clean 1234) in
  let detects q =
    List.exists
      (fun (k, _) -> k = Gen.Fault.Atomic_block)
      (Gen.Oracle.check q).Gen.Oracle.detected
  in
  Alcotest.(check bool) "fault detected before shrinking" true (detects p);
  let small = Gen.Shrink.minimize ~check:detects p in
  Alcotest.(check bool) "fault still detected after shrinking" true (detects small);
  let lines = Gen.Prog.line_count small in
  Alcotest.(check bool)
    (Printf.sprintf "repro is small (%d lines <= 30)" lines)
    true (lines <= 30);
  Alcotest.(check bool) "shrinking made progress" true
    (lines < Gen.Prog.line_count p
    || List.length small.Gen.Prog.funcs <= List.length p.Gen.Prog.funcs)

let test_shrink_keeps_predicate_sound () =
  (* A predicate nothing satisfies must return the input unchanged. *)
  let p = Gen.Generate.clean 77 in
  let q = Gen.Shrink.minimize ~check:(fun _ -> false) p in
  Alcotest.(check string) "no-op on unsatisfiable predicate" (Gen.Prog.render p)
    (Gen.Prog.render q)

let () =
  Alcotest.run "gen"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
        ] );
      ( "generator",
        [
          Alcotest.test_case "render deterministic" `Quick test_render_deterministic;
          Alcotest.test_case "well-typed" `Quick test_generated_well_typed;
          Alcotest.test_case "clean passes oracle" `Slow test_clean_programs_pass_oracle;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "injector labels" `Quick test_injector_labels;
          Alcotest.test_case "every kind detected" `Slow test_every_fault_kind_detected;
          Alcotest.test_case "oob-cast shape detected" `Slow test_oob_cast_shape_detected;
          Alcotest.test_case "atomic probes detected" `Quick test_atomic_probes_detected;
          Alcotest.test_case "fall-off return discharge is sound" `Quick
            test_fall_off_discharge_sound;
          Alcotest.test_case "one analysis pass per case" `Quick test_one_analysis_pass;
          Alcotest.test_case "matches the reference oracle" `Slow test_matches_reference_oracle;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "small campaign clean" `Slow test_campaign_clean;
          Alcotest.test_case "deterministic" `Slow test_campaign_deterministic;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "small repro" `Slow test_shrink_small_repro;
          Alcotest.test_case "unsatisfiable predicate" `Quick test_shrink_keeps_predicate_sound;
        ] );
    ]
