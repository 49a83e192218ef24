(* Text rendering of the experiment results: the same rows/series the
   paper reports, with the paper's value next to the measured one. *)

let fprintf = Printf.sprintf

let hr = String.make 64 '-'

let render_table1 (rows : Experiment.t1_row list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Table 1: Relative performance of the deputized kernel\n";
  Buffer.add_string buf
    "(bw rows: base/deputy bandwidth ratio; lat rows: deputy/base latency ratio)\n";
  Buffer.add_string buf (hr ^ "\n");
  Buffer.add_string buf
    (fprintf "%-14s %10s %12s %12s %8s\n" "Benchmark" "Paper" "Base(cyc)" "Deputy(cyc)" "Ours");
  Buffer.add_string buf (hr ^ "\n");
  List.iter
    (fun (r : Experiment.t1_row) ->
      Buffer.add_string buf
        (fprintf "%-14s %10.2f %12d %12d %8.2f\n" r.Experiment.row.Kernel.Workloads.id
           r.Experiment.row.Kernel.Workloads.paper r.Experiment.base_cycles
           r.Experiment.deputy_cycles r.Experiment.rel_perf))
    rows;
  Buffer.add_string buf (hr ^ "\n");
  Buffer.contents buf

let render_e1 (e : Experiment.e1) : string =
  let r = e.Experiment.deputy in
  String.concat "\n"
    [
      "E1: Deputy conversion census (paper: 435 kLoC converted, ~0.6% lines";
      "    annotated, <0.8% trusted; 2627 annotated lines, 3273 trusted lines)";
      hr;
      fprintf "corpus lines:            %d" e.Experiment.lines;
      fprintf "annotations:             %d (%.1f%% of lines)" e.Experiment.annotations
        (100.0 *. float_of_int e.Experiment.annotations /. float_of_int e.Experiment.lines);
      fprintf "trusted blocks:          %d" e.Experiment.trusted_blocks;
      fprintf "checks inserted:         %d" r.Deputy.Dreport.inserted;
      fprintf "statically discharged:   %d (%.1f%%)" r.Deputy.Dreport.discharged
        (100.0 *. float_of_int r.Deputy.Dreport.discharged
        /. float_of_int (max 1 r.Deputy.Dreport.inserted));
      fprintf "runtime checks:          %d" r.Deputy.Dreport.residual;
      fprintf "static errors:           %d" (List.length r.Deputy.Dreport.static_errors);
      hr;
      "";
    ]

let profile_name = function Vm.Cost.Up -> "UP" | Vm.Cost.Smp_p4 -> "SMP(P4)"

let render_e2 (cells : Experiment.e2_cell list) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "E2: CCount overheads (paper: fork 19% UP / 63% SMP; module-load 8% UP / 12% SMP)\n";
  Buffer.add_string buf (hr ^ "\n");
  Buffer.add_string buf
    (fprintf "%-18s %-8s %12s %12s %10s\n" "Workload" "Profile" "Base(cyc)" "CCount(cyc)" "Overhead");
  Buffer.add_string buf (hr ^ "\n");
  List.iter
    (fun (c : Experiment.e2_cell) ->
      Buffer.add_string buf
        (fprintf "%-18s %-8s %12d %12d %9.1f%%\n" c.Experiment.workload
           (profile_name c.Experiment.profile) c.Experiment.base_cycles
           c.Experiment.ccount_cycles c.Experiment.overhead_pct))
    cells;
  Buffer.add_string buf (hr ^ "\n");
  Buffer.contents buf

let render_census (c : Vm.Machine.free_census) : string =
  fprintf "%d frees, %d good (%.1f%%), %d bad" c.Vm.Machine.total_frees c.Vm.Machine.good
    c.Vm.Machine.good_pct c.Vm.Machine.bad

let render_e3 (e : Experiment.e3) : string =
  String.concat "\n"
    [
      "E3: CCount free census (paper: all ~107k boot frees verified; light use";
      "    brings good frees to 98.5%; fixes: 27 nullings + 26 delayed scopes)";
      hr;
      fprintf "unfixed, boot:        %s" (render_census e.Experiment.unfixed_boot_census);
      fprintf "fixed, boot:          %s" (render_census e.Experiment.boot_census);
      fprintf "fixed, light use:     %s" (render_census e.Experiment.light_use_census);
      fprintf "delayed-free scopes:  %d" e.Experiment.delayed_scopes;
      hr;
      "";
    ]

let render_e4 (e : Experiment.e4) : string =
  let warn_lines (r : Blockstop.Breport.report) =
    List.map
      (fun (f, c) ->
        let mark = if List.mem (f, c) e.Experiment.true_bugs then "BUG " else "warn" in
        fprintf "  %s %s -> %s" mark f c)
      (Blockstop.Breport.distinct_warnings r)
  in
  String.concat "\n"
    ([
       "E4: BlockStop (paper: 2 apparent bugs; false positives from conservative";
       "    points-to; 15 runtime checks silence all of them)";
       hr;
       fprintf "call edges: %d; blocking functions: %d" e.Experiment.unguarded.Blockstop.Breport.edges
         e.Experiment.unguarded.Blockstop.Breport.blocking_functions;
       fprintf "type-based points-to, no checks: %d distinct warnings"
         (List.length (Blockstop.Breport.distinct_warnings e.Experiment.unguarded));
     ]
    @ warn_lines e.Experiment.unguarded
    @ [
        fprintf "=> real bugs found: %d, false positives: %d (VM ground truth verified: %b)"
          e.Experiment.bugs_found e.Experiment.false_positives e.Experiment.ground_truth_verified;
        fprintf "with %d runtime checks (guards): %d warnings remain" e.Experiment.checks_inserted
          (List.length (Blockstop.Breport.distinct_warnings e.Experiment.guarded));
      ]
    @ warn_lines e.Experiment.guarded
    @ [
        fprintf "ablation, field-sensitive points-to: %d warnings"
          (List.length (Blockstop.Breport.distinct_warnings e.Experiment.field_based));
        hr;
        "";
      ])

let render_a1 (rows : Experiment.a1_row list) (a2 : Experiment.a2) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "A1: ablations — static discharge off, and leak-on-bad-free off\n";
  Buffer.add_string buf (hr ^ "\n");
  Buffer.add_string buf (fprintf "%-14s %12s %14s\n" "Benchmark" "optimized" "unoptimized");
  List.iter
    (fun (r : Experiment.a1_row) ->
      Buffer.add_string buf
        (fprintf "%-14s %12.2f %14.2f\n" r.Experiment.a_id r.Experiment.optimized
           r.Experiment.unoptimized))
    rows;
  Buffer.add_string buf
    (fprintf "leak-on-bad-free (sound): boot census %s; freeing anyway later faults: %b\n"
       (render_census a2.Experiment.leak_bad_census)
       a2.Experiment.free_anyway_traps);
  Buffer.add_string buf (hr ^ "\n");
  Buffer.contents buf

let render_x1 (x : Experiment.x1) : string =
  let c = x.Experiment.corpus_report and s = x.Experiment.seeded_report in
  String.concat "\n"
    [
      "X1 (extension): lock safety (paper §3.1: deadlock order + irq/process";
      "    spinlock invariant)";
      hr;
      fprintf "corpus: %d locks, %d order edges, %d deadlock pairs, %d irq-unsafe"
        (List.length c.Locksafe.locks)
        (List.length c.Locksafe.order_edges)
        (List.length c.Locksafe.deadlock_cycles)
        (List.length c.Locksafe.irq_unsafe);
      fprintf "with seeded staging driver: %d deadlock pairs %s, %d irq-unsafe"
        (List.length s.Locksafe.deadlock_cycles)
        (String.concat ", "
           (List.map (fun (a, b) -> Printf.sprintf "(%s <-> %s)" a b) s.Locksafe.deadlock_cycles))
        (List.length s.Locksafe.irq_unsafe);
      hr;
      "";
    ]

let render_x2 (x : Experiment.x2) : string =
  String.concat "\n"
    [
      "X2 (extension): stack-overflow prevention (paper §3.1: every call chain";
      "    within its 4 or 8 kB of stack)";
      hr;
      fprintf "worst chain: %d bytes via %s" x.Experiment.stack.Stackcheck.worst_bytes
        (String.concat " -> " x.Experiment.stack.Stackcheck.worst_chain);
      fprintf "boot entry fits 4 kB: %b; fits 8 kB: %b" x.Experiment.fits_4k x.Experiment.fits_8k;
      fprintf "recursive functions needing runtime checks: %d"
        (List.length (Stackcheck.needs_runtime_check x.Experiment.stack));
      hr;
      "";
    ]

let render_x3 (x : Experiment.x3) : string =
  let r = x.Experiment.errors in
  String.concat "\n"
    [
      "X3 (extension): error-code checking + the §3.2 annotation database";
      hr;
      fprintf "error-returning functions: %d (%d inferred)"
        (List.length r.Errcheck.err_functions)
        (Errcheck.SS.cardinal r.Errcheck.inferred);
      fprintf "call sites: %d, unchecked: %d" r.Errcheck.sites_total
        (List.length r.Errcheck.violations);
      fprintf "annotation database: %d facts (%d blocking, %d stack_bytes, %d returns_err)"
        (Annotdb.size x.Experiment.db)
        (List.length (Annotdb.by_kind x.Experiment.db "blocking"))
        (List.length (Annotdb.by_kind x.Experiment.db "stack_bytes"))
        (List.length (Annotdb.by_kind x.Experiment.db "returns_err"));
      hr;
      "";
    ]

let render_x4 (x : Experiment.x4) : string =
  let c = x.Experiment.corpus_userck and s = x.Experiment.seeded_userck in
  String.concat "\n"
    [
      "X4 (extension): user/kernel pointer checking (paper §3.1 'further";
      "    examples': user/kernel pointers)";
      hr;
      fprintf "corpus: %d __user params, %d flows checked, %d violations"
        c.Userck.user_params c.Userck.flows_checked
        (List.length c.Userck.violations);
      fprintf "with seeded raw-deref driver: %d violations (%s)"
        (List.length s.Userck.violations)
        (String.concat "; "
           (List.map (fun v -> Userck.kind_to_string v.Userck.v_kind) s.Userck.violations));
      hr;
      "";
    ]

(* ------------------------------------------------------------------ *)
(* Unified diagnostics (ivy check): one renderer for every analysis.  *)
(* ------------------------------------------------------------------ *)

let render_diags (results : (string * Engine.Diag.t list) list) : string =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, ds) ->
      Buffer.add_string buf (fprintf "%s: %d finding%s\n" name (List.length ds)
                               (if List.length ds = 1 then "" else "s"));
      List.iter (fun d -> Buffer.add_string buf ("  " ^ Engine.Diag.to_string d ^ "\n")) ds)
    results;
  let all = List.concat_map snd results in
  let tally = Engine.Diag.tally all in
  Buffer.add_string buf
    (fprintf "total: %d diagnostics%s\n" (List.length all)
       (if tally = [] then ""
        else
          " ("
          ^ String.concat ", "
              (List.map
                 (fun (s, n) -> fprintf "%d %s" n (Engine.Diag.severity_to_string s))
                 tally)
          ^ ")"));
  Buffer.contents buf

(* JSON shape: {"analyses": {...per-analysis arrays...}, "diagnostics":
   [...]} with an optional trailing "deputy" object carrying the check
   discharge counters (facts pass and absint pass separately) and an
   optional "ccount" object splitting the counter-update census into
   instrumented / register-skipped / refsafe-discharged / residual. *)
let render_diags_json ?deputy ?ccount (results : (string * Engine.Diag.t list) list) : string =
  let per =
    String.concat ","
      (List.map
         (fun (name, ds) ->
           fprintf "\"%s\":%s" name (Engine.Diag.list_to_json ds))
         results)
  in
  let deputy_json =
    match deputy with
    | None -> ""
    | Some (d : Engine.Context.deputized) ->
        let inserted = d.Engine.Context.dreport.Deputy.Dreport.inserted in
        let facts = d.Engine.Context.dreport.Deputy.Dreport.discharged in
        let proved = Absint.Discharge.checks_proved d.Engine.Context.dstats in
        (* absint_discharged stays the product-domain total (schema
           compatibility); the two component keys split it. *)
        fprintf
          ",\"deputy\":{\"checks_inserted\":%d,\"facts_discharged\":%d,\"absint_discharged\":%d,\"absint_interval\":%d,\"absint_relational\":%d,\"residual\":%d}"
          inserted facts proved
          (Absint.Discharge.checks_proved_iv d.Engine.Context.dstats)
          (Absint.Discharge.checks_proved_rel d.Engine.Context.dstats)
          (inserted - facts - proved)
  in
  let ccount_json =
    match ccount with
    | None -> ""
    | Some (c : Engine.Context.ccounted) ->
        let sites = c.Engine.Context.cinstr.Ccount.Rc_instrument.ptr_writes_instrumented in
        let skipped = c.Engine.Context.cinstr.Ccount.Rc_instrument.register_writes_skipped in
        let st = c.Engine.Context.crstats in
        let discharged = Refsafe.Discharge.discharged st in
        fprintf
          ",\"ccount\":{\"sites_instrumented\":%d,\"register_skipped\":%d,\"refsafe_discharged\":%d,\"residual\":%d}"
          sites skipped discharged
          (st.Refsafe.Discharge.updates_seen - discharged)
  in
  fprintf "{\"analyses\":{%s},\"diagnostics\":%s%s%s}\n" per
    (Engine.Diag.list_to_json (List.concat_map snd results))
    deputy_json ccount_json

(* The multi-file JSON envelope: one {"file", "report"} object per
   input, in argument order, each report spliced from its already
   rendered [render_diags_json] line. *)
let render_file_reports_json (reports : (string * string) list) : string =
  Jsonx.render
    (Jsonx.List
       (List.map
          (fun (path, report) ->
            Jsonx.Obj [ ("file", Jsonx.Str path); ("report", Jsonx.Raw (String.trim report)) ])
          reports))
  ^ "\n"

let render_stat_list (stats : Engine.Context.stat list) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "engine artifacts (builds / cache hits / invalidations / build self seconds):\n";
  List.iter
    (fun (s : Engine.Context.stat) ->
      Buffer.add_string buf
        (fprintf "  %-24s built %d  hits %d  inval %d  %.4fs\n" s.Engine.Context.artifact
           s.Engine.Context.builds s.Engine.Context.hits s.Engine.Context.invalidations
           s.Engine.Context.seconds))
    stats;
  Buffer.contents buf

(* Stats as JSON, deterministic counts separated from measured
   timing: golden tests (and the CI serve smoke job) lock the
   "artifacts" and "totals" objects while "timing_s" stays free. *)
let render_stats_json (stats : Engine.Context.stat list) : string =
  let counts =
    Jsonx.Obj
      (List.map
         (fun (s : Engine.Context.stat) ->
           ( s.Engine.Context.artifact,
             Jsonx.Obj
               [
                 ("builds", Jsonx.Num (float_of_int s.Engine.Context.builds));
                 ("hits", Jsonx.Num (float_of_int s.Engine.Context.hits));
                 ("invalidations", Jsonx.Num (float_of_int s.Engine.Context.invalidations));
               ] ))
         stats)
  in
  let timing =
    Jsonx.Obj
      (List.filter_map
         (fun (s : Engine.Context.stat) ->
           if s.Engine.Context.seconds = 0.0 then None
           else
             Some
               ( s.Engine.Context.artifact,
                 Jsonx.Raw (Printf.sprintf "%.6f" s.Engine.Context.seconds) ))
         stats)
  in
  Jsonx.render
    (Jsonx.Obj
       [
         ("artifacts", counts);
         ( "totals",
           Jsonx.Obj
             [
               ( "builds",
                 Jsonx.Num (float_of_int (Engine.Graph.total_builds stats)) );
               ("hits", Jsonx.Num (float_of_int (Engine.Graph.total_hits stats)));
               ( "invalidations",
                 Jsonx.Num (float_of_int (Engine.Graph.total_invalidations stats)) );
             ] );
         ("timing_s", timing);
       ])
  ^ "\n"

let render_e5 (e : Experiment.e5) : string =
  let r = e.Experiment.report in
  String.concat "\n"
    [
      "E5: driver-subset conversion (paper §5: type errors and buffer overruns";
      "    prevented in 81,000 lines with 2.5 weeks of effort)";
      hr;
      fprintf "subset lines:          %d" e.Experiment.subset_lines;
      fprintf "checks inserted:       %d (%d static, %d runtime)" r.Deputy.Dreport.inserted
        r.Deputy.Dreport.discharged r.Deputy.Dreport.residual;
      fprintf "static errors:         %d" (List.length r.Deputy.Dreport.static_errors);
      hr;
      "";
    ]
