(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation, then measures this implementation itself with
   bechamel (pipeline stages and experiment drivers).

   Run with:  dune exec bench/main.exe

   Part 1 prints the paper-shaped tables (deterministic: the VM's
   cycle counts do not depend on the host).
   Part 2 reports host-side wall-clock costs of the pipeline stages
   and of each experiment driver. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '#')

(* Seconds since [t0], a [Monotonic_clock.now] reading. *)
let elapsed_s t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9

let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    let t0 = Monotonic_clock.now () in
    f ();
    best := Float.min !best (elapsed_s t0)
  done;
  !best

(* --json: machine-readable results. Every headline scenario records
   (name, wall-clock seconds, speedup); the collected list is printed
   as JSON and written to bench-results.json in the working directory
   when the flag is given. Format documented in DESIGN.md §13. *)
let json_results : (string * float * float) list ref = ref []

let record ~scenario ~wall ~speedup =
  json_results := (scenario, wall, speedup) :: !json_results

let render_json () =
  let rows =
    List.rev_map
      (fun (s, w, x) ->
        Printf.sprintf "    {\"scenario\": %S, \"wall_clock_s\": %.6f, \"speedup\": %.3f}" s w x)
      !json_results
  in
  Printf.sprintf "{\n  \"bench\": \"ivy\",\n  \"format\": 1,\n  \"results\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" rows)

let emit_json () =
  let s = render_json () in
  print_string s;
  let oc = open_out "bench-results.json" in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate the evaluation                                  *)
(* ------------------------------------------------------------------ *)

let regenerate () =
  section "T1: Table 1";
  print_string (Ivy.Report_fmt.render_table1 (Ivy.Experiment.table1 ()));
  section "E1: Deputy conversion census";
  print_string (Ivy.Report_fmt.render_e1 (Ivy.Experiment.e1_census ()));
  section "E2: CCount overheads";
  print_string (Ivy.Report_fmt.render_e2 (Ivy.Experiment.e2_overheads ()));
  section "E3: CCount free census";
  print_string (Ivy.Report_fmt.render_e3 (Ivy.Experiment.e3_free_census ()));
  section "E4: BlockStop";
  print_string (Ivy.Report_fmt.render_e4 (Ivy.Experiment.e4_blockstop ()));
  section "E5: driver subset";
  print_string (Ivy.Report_fmt.render_e5 (Ivy.Experiment.e5_driver_subset ()));
  section "A1: ablations";
  print_string
    (Ivy.Report_fmt.render_a1
       (Ivy.Experiment.a1_discharge_ablation ())
       (Ivy.Experiment.a2_leak_ablation ()));
  section "X1: lock safety (extension)";
  print_string (Ivy.Report_fmt.render_x1 (Ivy.Experiment.x1_locksafe ()));
  section "X2: stack budget (extension)";
  print_string (Ivy.Report_fmt.render_x2 (Ivy.Experiment.x2_stackcheck ()));
  section "X3: error codes + annotation DB (extension)";
  print_string (Ivy.Report_fmt.render_x3 (Ivy.Experiment.x3_errcheck_and_db ()));
  section "X4: user/kernel pointers (extension)";
  print_string (Ivy.Report_fmt.render_x4 (Ivy.Experiment.x4_userck ()))

(* ------------------------------------------------------------------ *)
(* Part 1c: absint discharge on the deputized VM                      *)
(* ------------------------------------------------------------------ *)

(* Deputized corpus with the Facts optimizer alone vs Facts + the
   absint interval stage: same workload schedule on both machines, so
   the dynamic check counters are directly comparable (and must drop
   on the absint side — every discharged check is one the VM no longer
   executes). *)
let absint_workload (mode : Ivy.Pipeline.mode) : Ivy.Pipeline.run =
  let r = Ivy.Pipeline.booted mode in
  List.iter
    (fun (row : Kernel.Workloads.row) ->
      ignore (Ivy.Pipeline.run_entry r row.Kernel.Workloads.entry 3))
    Kernel.Workloads.table1;
  r

let checks_executed (r : Ivy.Pipeline.run) : int =
  r.Ivy.Pipeline.interp.Vm.Interp.m.Vm.Machine.cost.Vm.Cost.checks_executed

let bench_absint () =
  section "ABSINT: deputized VM, Facts only vs Facts+absint";
  let facts = absint_workload Ivy.Pipeline.Deputy in
  let both = absint_workload Ivy.Pipeline.Deputy_absint in
  let cf = checks_executed facts and cb = checks_executed both in
  (match both.Ivy.Pipeline.absint_stats with
  | Some st -> print_string (Absint.Discharge.render_stats st)
  | None -> ());
  Printf.printf "dynamic checks executed (boot + table1 x3):\n";
  Printf.printf "  facts only:     %10d\n" cf;
  Printf.printf "  facts + absint: %10d\n" cb;
  Printf.printf "  removed:        %10d (%.1f%%, fewer: %b)\n" (cf - cb)
    (if cf = 0 then 0.0 else 100.0 *. float_of_int (cf - cb) /. float_of_int cf)
    (cb < cf)

(* ------------------------------------------------------------------ *)
(* Part 1d: serial vs parallel fuzz campaign                           *)
(* ------------------------------------------------------------------ *)

(* The same campaign evaluated on one domain and on a Par pool: wall
   clock may differ (that is the point), the rendered summary must not.
   Runnable standalone as `bench/main.exe --fuzz-par [count]`. *)
let bench_parfuzz ?(count = 60) () =
  section "PARFUZZ: fuzz campaign, 1 domain vs a Par pool";
  let seed = 1 in
  let jobs = Par.default_jobs () in
  let timed f =
    let t0 = Monotonic_clock.now () in
    let v = f () in
    (v, elapsed_s t0)
  in
  let serial, t_serial = timed (fun () -> Gen.Fuzz.run ~jobs:1 ~seed ~count ()) in
  let par, t_par = timed (fun () -> Gen.Fuzz.run ~jobs ~seed ~count ()) in
  let render s = Gen.Fuzz.render_summary ~elapsed:false s in
  let identical = String.equal (render serial) (render par) in
  Printf.printf "campaign: seed %d, %d cases (format v%d)\n" seed count Gen.Fuzz.format_version;
  Printf.printf "jobs=1:            %8.2f s\n" t_serial;
  Printf.printf "jobs=%-2d:           %8.2f s\n" jobs t_par;
  Printf.printf "speedup:           %8.2fx\n" (t_serial /. t_par);
  Printf.printf "summaries identical: %b\n" identical;
  record ~scenario:"parfuzz" ~wall:t_par ~speedup:(t_serial /. t_par);
  if not identical then begin
    Printf.printf "FAIL: parallel campaign diverged from the serial one\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 1d': serve daemon latency tiers                               *)
(* ------------------------------------------------------------------ *)

(* The point of `ivy serve`: a cold check pays the full pipeline, a
   byte-identical resubmit is microseconds (no parse, all artifact
   hits), a comment-only edit pays one re-parse but zero rebuilds
   (fingerprints are over the IR), and a one-function body edit
   rebuilds only the artifacts downstream of that function. Runs the
   daemon's request handler in-process — the latency of interest is
   the engine's, not the socket's. Runnable standalone as
   `bench/main.exe --serve`. *)
let bench_serve () =
  section "SERVE: check latency, cold vs warm vs incremental";
  let module J = Ivy.Jsonx in
  let sources = Kernel.Corpus.sources () in
  let req srcs =
    J.render
      (J.Obj
         [
           ("id", J.Num 1.0);
           ("method", J.Str "check");
           ( "params",
             J.Obj
               [
                 ("program", J.Str "bench");
                 ( "files",
                   J.List
                     (List.map
                        (fun (p, s) -> J.Obj [ ("path", J.Str p); ("source", J.Str s) ])
                        srcs) );
               ] );
         ])
  in
  let t = Ivy.Serve.create ~capacity:4 ~jobs:1 () in
  let timed line =
    let t0 = Monotonic_clock.now () in
    let resp, _ = Ivy.Serve.handle_line t line in
    (resp, elapsed_s t0)
  in
  let warm_of resp =
    match Option.bind (J.member "result" (J.parse resp)) (J.member "warm") with
    | Some (J.Bool b) -> b
    | _ -> false
  in
  let r_cold, t_cold = timed (req sources) in
  let r_warm, t_warm = timed (req sources) in
  (* Comment-only change: the daemon must re-parse, but every content
     hash is unchanged, so nothing rebuilds. *)
  let touched = List.map (fun (p, s) -> (p, s ^ "\n// bench touch\n")) sources in
  let r_touch, t_touch = timed (req touched) in
  (* One arithmetic body edit in one file: partial rebuild. *)
  let edited =
    let done_ = ref false in
    List.map
      (fun (p, s) ->
        match String.index_opt s '{' with
        | Some _ when not !done_ ->
            let marker = "return 0;" in
            let rec find i =
              if i + String.length marker > String.length s then None
              else if String.sub s i (String.length marker) = marker then Some i
              else find (i + 1)
            in
            (match find 0 with
            | Some i ->
                done_ := true;
                ( p,
                  String.sub s 0 i ^ "return 0 + 0;"
                  ^ String.sub s (i + String.length marker)
                      (String.length s - i - String.length marker) )
            | None -> (p, s))
        | _ -> (p, s))
      touched
  in
  let r_edit, t_edit = timed (req edited) in
  Printf.printf "cold (parse + full build):      %8.2f ms (warm:%b)\n" (t_cold *. 1e3)
    (warm_of r_cold);
  Printf.printf "identical resubmit:             %8.2f ms (warm:%b)\n" (t_warm *. 1e3)
    (warm_of r_warm);
  Printf.printf "comment-only edit (re-parse):   %8.2f ms (warm:%b)\n" (t_touch *. 1e3)
    (warm_of r_touch);
  Printf.printf "one-function body edit:         %8.2f ms (warm:%b)\n" (t_edit *. 1e3)
    (warm_of r_edit);
  Printf.printf "warm speedup:                   %8.2fx\n" (t_cold /. t_warm);
  record ~scenario:"serve-warm" ~wall:t_warm ~speedup:(t_cold /. t_warm);
  record ~scenario:"serve-edit" ~wall:t_edit ~speedup:(t_cold /. t_edit);
  if (not (warm_of r_warm)) || not (warm_of r_touch) then begin
    Printf.printf "FAIL: a no-op resubmit rebuilt artifacts (warm resubmit %b, comment edit %b)\n"
      (warm_of r_warm) (warm_of r_touch);
    exit 1
  end;
  if warm_of r_edit then begin
    Printf.printf "FAIL: a body edit reported warm (stale artifacts served)\n";
    exit 1
  end;
  (* Per-function absint nodes: a one-function body edit re-solves a
     few summaries and discharges, not the whole program's. Counted
     from each request's stats delta, so the gate is deterministic. *)
  let absint_builds resp =
    List.fold_left
      (fun acc name ->
        match
          Option.bind (J.member "result" (J.parse resp)) (fun r ->
              List.fold_left
                (fun j k -> Option.bind j (J.member k))
                (Some r)
                [ "stats"; "artifacts"; name; "builds" ])
        with
        | Some (J.Num n) -> acc + int_of_float n
        | _ -> acc)
      0
      [ "absint-summary"; "absint-discharge" ]
  in
  let cold_builds = absint_builds r_cold and edit_builds = absint_builds r_edit in
  Printf.printf "absint per-function builds:     cold %d, one-function edit %d\n" cold_builds
    edit_builds;
  if cold_builds = 0 || edit_builds * 10 > cold_builds then begin
    Printf.printf
      "FAIL: the body edit rebuilt %d absint-summary/absint-discharge nodes, over 10%% of the \
       cold check's %d (whole-program re-solving)\n"
      edit_builds cold_builds;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 1d'': refsafe-gated CCount overhead                           *)
(* ------------------------------------------------------------------ *)

(* CCount instrumentation vs CCount with the refsafe discharge gate,
   on a workload whose hot loop is exactly the shapes the gate proves
   unobservable: stack-hosted pointer-field writes (rule R1) and a
   global publish/retire window (rule R3). The VM's cycle counts are
   deterministic, so the overhead split is a property of the analysis,
   not of the host. The corpus itself takes an int-to-pointer cast
   (MMIO), which soundly disables the class/window rules there — hence
   a dedicated workload, mirroring how E2 isolates CCount's own cost. *)
let refsafe_bench_src =
  "typedef unsigned long size_t;\n\
   void * __opt kzalloc(size_t n, int flags) __blocking_if_gfp_wait;\n\
   void kfree(void * __opt p);\n\
   long * __count(4) __opt gslot;\n\
   struct pair { long * __opt a; long * __opt b; };\n\
   long bench(long n) {\n\
   long acc = 0;\n\
   long i = 0;\n\
   while (i < n) {\n\
   long * __count(4) __opt hp = kzalloc(32, 0);\n\
   struct pair pr;\n\
   pr.a = hp;\n\
   pr.b = 0;\n\
   if (hp != 0) {\n\
   hp[0] = i;\n\
   gslot = hp;\n\
   acc = acc + hp[0];\n\
   gslot = 0;\n\
   kfree(hp);\n\
   }\n\
   i = i + 1;\n\
   }\n\
   return acc;\n\
   }\n\
   int main(void) { return (int)bench(0); }\n"

let refsafe_parse () = Kc.Typecheck.check_sources [ ("refsafe_bench.kc", refsafe_bench_src) ]

(* Boot one interpreter per arm and run the same schedule on each;
   returns (cycles, census, discharge stats option). *)
let refsafe_arm ~iters arm : int * Vm.Machine.free_census * Refsafe.Discharge.stats option =
  let prog = refsafe_parse () in
  let t, report =
    match arm with
    | `Base ->
        (* Same machine configuration, no instrumentation: isolates the
           counter-maintenance cycles from the workload's own. *)
        let m = Vm.Machine.create ~config:(Ccount.Creport.config ()) () in
        let t = Vm.Interp.create prog m in
        Vm.Builtins.install t;
        (t, None)
    | `Ccount ->
        let t, r = Ccount.Creport.ccount_boot prog in
        (t, Some r)
    | `Gated ->
        let t, r = Ccount.Creport.ccount_boot ~refsafe:true prog in
        (t, Some r)
  in
  ignore (Vm.Interp.run t "bench" [ Int64.of_int iters ]);
  ( t.Vm.Interp.m.Vm.Machine.cost.Vm.Cost.cycles,
    Vm.Machine.free_census t.Vm.Interp.m,
    Option.bind report (fun r -> r.Ccount.Creport.refsafe) )

(* Percentage of CCount's own cycle overhead the gate removes. *)
let refsafe_overhead_removed () =
  let iters = 200 in
  let c_base, _, _ = refsafe_arm ~iters `Base in
  let c_plain, census_plain, _ = refsafe_arm ~iters `Ccount in
  let c_gated, census_gated, st = refsafe_arm ~iters `Gated in
  (c_base, c_plain, c_gated, census_plain, census_gated, st)

let bench_refsafe () =
  section "REFSAFE: CCount overhead with and without the discharge gate";
  let c_base, c_plain, c_gated, census_plain, census_gated, st = refsafe_overhead_removed () in
  let pct c = 100.0 *. float_of_int (c - c_base) /. float_of_int c_base in
  let removed =
    if c_plain = c_base then 0.0
    else 100.0 *. float_of_int (c_plain - c_gated) /. float_of_int (c_plain - c_base)
  in
  (match st with Some st -> print_string (Refsafe.Discharge.render_stats st) | None -> ());
  Printf.printf "cycles (200-iteration alloc/publish/free loop):\n";
  Printf.printf "  uninstrumented:  %10d\n" c_base;
  Printf.printf "  ccount:          %10d  (+%.1f%%)\n" c_plain (pct c_plain);
  Printf.printf "  ccount+refsafe:  %10d  (+%.1f%%)\n" c_gated (pct c_gated);
  Printf.printf "  gate removed:    %10.1f%% of the ccount overhead\n" removed;
  let census_ok =
    census_plain.Vm.Machine.total_frees = census_gated.Vm.Machine.total_frees
    && census_plain.Vm.Machine.bad = census_gated.Vm.Machine.bad
  in
  Printf.printf "free census identical: %b (%d frees, %d bad)\n" census_ok
    census_plain.Vm.Machine.total_frees census_plain.Vm.Machine.bad;
  record ~scenario:"refsafe-gate" ~wall:0.0
    ~speedup:(float_of_int c_plain /. float_of_int c_gated);
  if not census_ok then begin
    Printf.printf "FAIL: the gate changed the observable free census\n";
    exit 1
  end;
  removed

(* --refsafe-gate: CI regression fence, mirroring --absint-gate. The
   floor is the share of CCount's cycle overhead the discharge gate is
   known to remove on the dedicated workload; both sides of the ratio
   are deterministic VM cycle counts. *)
let refsafe_floor_file = "bench/refsafe_floor.txt"

(* --absint-gate: CI regression fence.  The checked-in floor is the
   discharge rate the interval stage is known to reach on the corpus;
   a change that drops below it silently weakened the analysis. *)
let absint_floor_file = "bench/absint_floor.txt"

let read_floor path =
  let ic = open_in path in
  let rec go () =
    match input_line ic with
    | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go () else float_of_string line
    | exception End_of_file ->
        close_in ic;
        failwith (path ^ ": no floor value found")
  in
  let v = go () in
  close_in ic;
  v

let absint_gate () =
  let floor = read_floor absint_floor_file in
  let prog = Kernel.Workloads.load ~fresh:true () in
  ignore (Deputy.Dreport.deputize ~optimize:true prog);
  let st = Absint.Discharge.run prog in
  let rate = Absint.Discharge.rate st in
  Printf.printf
    "absint gate: discharge rate %.1f%% (%d of %d residual checks: intervals %d + relational \
     %d), floor %.1f%%\n"
    rate (Absint.Discharge.checks_proved st) (Absint.Discharge.checks_seen st)
    (Absint.Discharge.checks_proved_iv st)
    (Absint.Discharge.checks_proved_rel st) floor;
  record ~scenario:"absint-gate" ~wall:0.0 ~speedup:(rate /. 100.);
  if rate < floor then begin
    Printf.printf "FAIL: discharge rate regressed below the checked-in floor\n";
    exit 1
  end
  else Printf.printf "OK\n"

(* --absint-wall: CI fence on what the relational layer costs. Times
   [Discharge.run] on the deputized corpus+workloads unit under the
   product domain and under interval-only, alternating the two, and
   fails when the median product time exceeds the checked-in ceiling
   times the median interval-only time. The ratio, not a wall time, is
   fenced: both arms share the host, so it travels between machines. *)
let absint_wall_ceiling_file = "bench/absint_wall_ceiling.txt"

let absint_wall_runs = 7

let absint_wall () =
  let ceiling = read_floor absint_wall_ceiling_file in
  let base = Kernel.Workloads.load ~fresh:true () in
  let time_run discharge =
    let prog = Kc.Ir.copy_program base in
    ignore (Deputy.Dreport.deputize ~optimize:true prog);
    Gc.full_major ();
    let t0 = Monotonic_clock.now () in
    ignore (discharge prog);
    elapsed_s t0
  in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let runs =
    List.init absint_wall_runs (fun _ ->
        let p = time_run (fun prog -> Absint.Discharge.run prog) in
        (p, time_run (fun prog -> Absint.Discharge.run ~ifaces:Absint.Transfer.interval_only prog)))
  in
  let product = median (List.map fst runs) and interval = median (List.map snd runs) in
  let ratio = product /. interval in
  Printf.printf
    "absint wall: product %.1f ms, interval-only %.1f ms (median of %d), ratio %.2fx, ceiling \
     %.2fx\n"
    (product *. 1e3) (interval *. 1e3) absint_wall_runs ratio ceiling;
  (* the speedup column carries the cost ratio here, as absint-gate's
     carries a rate *)
  record ~scenario:"absint-wall" ~wall:product ~speedup:ratio;
  if ratio > ceiling then begin
    Printf.printf "FAIL: the product domain's cost over interval-only rose above the ceiling\n";
    exit 1
  end
  else Printf.printf "OK\n"

let refsafe_gate () =
  let floor = read_floor refsafe_floor_file in
  let removed = bench_refsafe () in
  Printf.printf "refsafe gate: %.1f%% of the ccount overhead removed, floor %.1f%%\n" removed
    floor;
  if removed < floor then begin
    Printf.printf "FAIL: the refsafe discharge regressed below the checked-in floor\n";
    exit 1
  end
  else Printf.printf "OK\n"

(* ------------------------------------------------------------------ *)
(* Part 1e: tree-walk vs pre-compiled VM engine                       *)
(* ------------------------------------------------------------------ *)

(* The two engines are observationally equivalent (the differential
   suite proves it instruction-by-instruction); here we measure the
   wall-clock gap on the two execution-heavy shapes — the E2-style
   deputized workload schedule and the oracle-style boot-and-run of
   fuzz cases — and assert the cycle counters agree as a cheap live
   equivalence check. Programs are parsed and instrumented outside the
   timed region: this benchmark is about execution, and the compiled
   engine's per-program code cache makes its one-time compile cost
   vanish across the repeated boots (each warmup run pays it). *)

let vm_cycles (t : Vm.Interp.t) = t.Vm.Interp.m.Vm.Machine.cost.Vm.Cost.cycles

(* One E2-shaped run: boot the deputized corpus, run the boot script
   and the Table 1 schedule. Returns the machine's cycle count. *)
let vm_e2_once ~engine prog : int =
  let t = Vm.Builtins.boot ~engine prog in
  ignore (Vm.Interp.run t Kernel.Corpus.boot_entry []);
  List.iter
    (fun (row : Kernel.Workloads.row) ->
      ignore (Vm.Interp.run t row.Kernel.Workloads.entry [ 3L ]))
    Kernel.Workloads.table1;
  vm_cycles t

(* One oracle-shaped run: boot every pre-instrumented fuzz-case
   variant and run main, traps included. Returns summed cycles. *)
let vm_oracle_once ~engine (progs : Kc.Ir.program list) : int =
  List.fold_left
    (fun acc p ->
      let t = Vm.Builtins.boot ~engine p in
      (try ignore (Vm.Interp.run t "main" []) with Vm.Trap.Trap _ -> ());
      acc + vm_cycles t)
    0 progs

let vm_oracle_progs ~cases () : Kc.Ir.program list =
  List.concat_map
    (fun i ->
      let src = Gen.Prog.render (Gen.Fuzz.case_program ~seed:5 i) in
      let parse () = Kc.Typecheck.check_sources [ ("bench.kc", src) ] in
      let dep = parse () in
      ignore (Deputy.Dreport.deputize dep);
      [ parse (); dep ])
    (List.init cases (fun i -> i))

let bench_vm_compile ?(best = 3) ?(cases = 8) () =
  section "VM: tree-walk vs pre-compiled engine";
  let prog = Kernel.Workloads.load ~fresh:true () in
  ignore (Deputy.Dreport.deputize ~optimize:true prog);
  (* Warmup: first compiled boot pays the compile, off the clock; and
     the cycle counters of the two engines must agree exactly. *)
  let c_tree = vm_e2_once ~engine:Vm.Interp.Tree prog in
  let c_comp = vm_e2_once ~engine:Vm.Interp.Compiled prog in
  if c_tree <> c_comp then begin
    Printf.printf "FAIL: engine cycle divergence on E2 (tree %d, compiled %d)\n" c_tree c_comp;
    exit 1
  end;
  let t_tree = best_of best (fun () -> ignore (vm_e2_once ~engine:Vm.Interp.Tree prog)) in
  let t_comp = best_of best (fun () -> ignore (vm_e2_once ~engine:Vm.Interp.Compiled prog)) in
  let e2_speedup = t_tree /. t_comp in
  Printf.printf "E2 schedule (boot + table1 x3), %d cycles:\n" c_tree;
  Printf.printf "  tree-walk: %8.2f ms\n" (t_tree *. 1e3);
  Printf.printf "  compiled:  %8.2f ms\n" (t_comp *. 1e3);
  Printf.printf "  speedup:   %8.2fx\n" e2_speedup;
  record ~scenario:"vm-e2" ~wall:t_comp ~speedup:e2_speedup;
  let progs = vm_oracle_progs ~cases () in
  (* Equivalence check on the true oracle shape: fresh boots, one run
     of main each, cycle counters must agree. *)
  let oc_tree = vm_oracle_once ~engine:Vm.Interp.Tree progs in
  let oc_comp = vm_oracle_once ~engine:Vm.Interp.Compiled progs in
  if oc_tree <> oc_comp then begin
    Printf.printf "FAIL: engine cycle divergence on oracle runs (tree %d, compiled %d)\n" oc_tree
      oc_comp;
    exit 1
  end;
  (* Timing: the boots (engine-independent machine setup) stay off the
     clock; main is re-run to amplify execution over timer noise. The
     engines do identical work — same interpreters, same rep count,
     and by equivalence the same executed paths. *)
  let reps = 50 in
  let time_oracle engine =
    let interps = List.map (fun p -> Vm.Builtins.boot ~engine p) progs in
    best_of best (fun () ->
        List.iter
          (fun t ->
            for _ = 1 to reps do
              try ignore (Vm.Interp.run t "main" []) with Vm.Trap.Trap _ -> ()
            done)
          interps)
  in
  let ot_tree = time_oracle Vm.Interp.Tree in
  let ot_comp = time_oracle Vm.Interp.Compiled in
  let oracle_speedup = ot_tree /. ot_comp in
  Printf.printf "oracle runs (%d fuzz-case variants x%d, boots off-clock), %d cycles:\n"
    (List.length progs) reps oc_tree;
  Printf.printf "  tree-walk: %8.2f ms\n" (ot_tree *. 1e3);
  Printf.printf "  compiled:  %8.2f ms\n" (ot_comp *. 1e3);
  Printf.printf "  speedup:   %8.2fx\n" oracle_speedup;
  record ~scenario:"vm-oracle" ~wall:ot_comp ~speedup:oracle_speedup;
  e2_speedup

(* --vm-gate: CI regression fence, mirroring --absint-gate. The
   checked-in floor is a conservative lower bound on the compiled
   engine's E2 speedup; dropping below it means the compiled engine
   lost its reason to exist (or stopped being used by default). *)
let vm_floor_file = "bench/vm_floor.txt"

let vm_gate () =
  let floor = read_floor vm_floor_file in
  let speedup = bench_vm_compile ~best:3 ~cases:4 () in
  Printf.printf "vm gate: compiled-engine E2 speedup %.2fx, floor %.2fx\n" speedup floor;
  if speedup < floor then begin
    Printf.printf "FAIL: compiled-engine speedup regressed below the checked-in floor\n";
    exit 1
  end
  else Printf.printf "OK\n"

(* ------------------------------------------------------------------ *)
(* Part 2: bechamel micro-benchmarks of the implementation            *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

(* The pipeline stages a downstream user would care about (the
   analyses as `ivy check` runs them, over one shared context), plus
   paper experiment drivers and one fuzz case. *)
let tests () =
  let parsed = Kernel.Workloads.load () in
  [
    (* Pipeline stages. The frontend is timed by perfbench
       (kc.frontend_ms). *)
    Test.make ~name:"deputy:instrument+optimize"
      (Staged.stage (fun () ->
           let p = Kernel.Corpus.load () in
           ignore (Deputy.Dreport.deputize p)));
    Test.make ~name:"absint:discharge"
      (Staged.stage (fun () ->
           let p = Kernel.Corpus.load () in
           ignore (Deputy.Dreport.deputize p);
           ignore (Absint.Discharge.run p)));
    Test.make ~name:"ccount:instrument"
      (Staged.stage (fun () ->
           let p = Kernel.Corpus.load () in
           ignore (Ccount.Rc_instrument.instrument_program p)));
    Test.make ~name:"vm:boot"
      (Staged.stage (fun () -> ignore (Ivy.Pipeline.booted Ivy.Pipeline.Base)));
    (* One per table / experiment. *)
    Test.make ~name:"table1:lat_udp row"
      (Staged.stage (fun () ->
           ignore (Ivy.Experiment.table1_row (Kernel.Workloads.find_row "lat_udp"))));
    Test.make ~name:"e2:fork overhead cell"
      (Staged.stage (fun () ->
           ignore (Ivy.Experiment.e2_cell ~workload:"wl_fork" ~iters:5 Vm.Cost.Up)));
    Test.make ~name:"e3:free census"
      (Staged.stage (fun () ->
           let r = Ivy.Pipeline.booted (Ivy.Pipeline.Ccount Vm.Cost.Up) in
           ignore (Ivy.Pipeline.run_entry r "wl_ssh_copy" 10);
           ignore (Ivy.Pipeline.free_census r)));
    Test.make ~name:"e4:blockstop experiment"
      (Staged.stage (fun () -> ignore (Ivy.Experiment.e4_blockstop ())));
    Test.make ~name:"engine:check (all, shared ctxt)"
      (Staged.stage (fun () ->
           let ctxt = Engine.Context.create parsed in
           ignore (Ivy.Checks.run_all ctxt)));
    (* Fuzz-subsystem throughput: one full case = generate + render +
       typecheck + all analyses + three instrumented VM runs. *)
    Test.make ~name:"gen:render (one case)"
      (Staged.stage (fun () -> ignore (Gen.Prog.render (Gen.Fuzz.case_program ~seed:1 1))));
    Test.make ~name:"gen:generate+oracle (one case)"
      (Staged.stage (fun () -> ignore (Gen.Oracle.check (Gen.Fuzz.case_program ~seed:1 1))));
  ]

let benchmark () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  Printf.printf "\n%-34s %14s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 50 '-');
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
      List.iter
        (fun (name, raw) ->
          let est = Analyze.one ols Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] ->
              let pretty =
                if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
                else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
                else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
                else Printf.sprintf "%8.0f ns" ns
              in
              Printf.printf "%-34s %14s\n" name pretty;
              flush stdout
          | _ -> Printf.printf "%-34s %14s\n" name "n/a")
        entries)
    (tests ())

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let args = List.filter (fun a -> a <> "--json") args in
  (match args with
  | "--absint-gate" :: _ -> absint_gate ()
  | "--absint-wall" :: _ -> absint_wall ()
  | "--vm-gate" :: _ -> vm_gate ()
  | "--refsafe-gate" :: _ -> refsafe_gate ()
  | "--gates" :: _ ->
      (* every CI regression fence in one process, so --json collects
         all the headline scenarios into a single results file *)
      absint_gate ();
      absint_wall ();
      vm_gate ();
      refsafe_gate ();
      bench_serve ()
  | "--vm-compile" :: _ -> ignore (bench_vm_compile ())
  | "--fuzz-par" :: rest ->
      let count = match rest with c :: _ -> int_of_string c | [] -> 60 in
      bench_parfuzz ~count ()
  | "--serve" :: _ -> bench_serve ()
  | _ ->
      regenerate ();
      bench_absint ();
      bench_vm_compile () |> ignore;
      bench_refsafe () |> ignore;
      bench_parfuzz ();
      bench_serve ();
      section "Implementation micro-benchmarks (bechamel)";
      benchmark ());
  if json then emit_json ()
