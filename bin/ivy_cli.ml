(* The ivy command-line tool: run the analyses and the paper's
   experiments over the bundled mini-kernel corpus or over user-given
   KC files.

     ivy boot [--mode MODE]        boot the kernel on the VM
     ivy run ENTRY [--iters N]     run a workload entry point
     ivy check [--only a,b]        registered analyses over one shared context
     ivy NAME                      = ivy check --only NAME, one per registered
                                   analysis (blockstop, locksafe, stackcheck,
                                   errcheck, userck, absint, refsafe)
     ivy serve [--watch DIR]       incremental analysis daemon (JSON-RPC)
     ivy rpc METHOD [FILE...]      talk to a running daemon
     ivy deputy [FILE...]          Deputy census (and static errors)
     ivy ccount [--profile P]      CCount free census after light use
     ivy infer [FILE...]           Deputy annotation suggestions
     ivy annotdb [-o FILE]         populate and dump the fact database
     ivy fuzz [--count K]          differential soundness fuzzing
     ivy corpus [--erase]          corpus stats, or erased source
     ivy experiments [all|t1|e1|e2|e3|e4|e5|a1|x1|x2|x3|x4]
*)

open Cmdliner

let load_files files ~fixed_frees =
  match files with
  | [] -> Kernel.Workloads.load ~fixed_frees ~fresh:true ()
  | fs ->
      let sources =
        List.map
          (fun path ->
            let ic = open_in path in
            let n = in_channel_length ic in
            let s = really_input_string ic n in
            close_in ic;
            (path, s))
          fs
      in
      Kc.Typecheck.check_sources sources

let handle_frontend_errors f =
  try f () with
  | Kc.Typecheck.Type_error (msg, loc) ->
      Printf.eprintf "type error: %s at %s\n" msg (Kc.Loc.to_string loc);
      exit 1
  | Kc.Parser.Error (msg, loc) ->
      Printf.eprintf "parse error: %s at %s\n" msg (Kc.Loc.to_string loc);
      exit 1
  | Kc.Lexer.Error (msg, loc) ->
      Printf.eprintf "lex error: %s at %s\n" msg (Kc.Loc.to_string loc);
      exit 1
  | Vm.Trap.Trap (k, msg) ->
      Printf.eprintf "TRAP [%s]: %s\n" (Vm.Trap.kind_to_string k) msg;
      exit 2

(* Shared arguments *)

let mode_arg =
  let parse = function
    | "base" -> Ok Ivy.Pipeline.Base
    | "deputy" -> Ok Ivy.Pipeline.Deputy
    | "deputy-unopt" -> Ok Ivy.Pipeline.Deputy_unoptimized
    | "deputy-absint" -> Ok Ivy.Pipeline.Deputy_absint
    | "ccount-up" -> Ok (Ivy.Pipeline.Ccount Vm.Cost.Up)
    | "ccount-smp" -> Ok (Ivy.Pipeline.Ccount Vm.Cost.Smp_p4)
    | "ccount-refsafe-up" -> Ok (Ivy.Pipeline.Ccount_refsafe Vm.Cost.Up)
    | "ccount-refsafe-smp" -> Ok (Ivy.Pipeline.Ccount_refsafe Vm.Cost.Smp_p4)
    | "blockstop-guarded" -> Ok Ivy.Pipeline.Blockstop_guarded
    | s -> Error (`Msg (Printf.sprintf "unknown mode %s" s))
  in
  let print fmt m = Format.pp_print_string fmt (Ivy.Pipeline.mode_to_string m) in
  Arg.conv (parse, print)

let mode_t =
  Arg.(
    value
    & opt mode_arg Ivy.Pipeline.Base
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:"Instrumentation mode: base, deputy, deputy-unopt, deputy-absint, ccount-up, \
              ccount-smp, ccount-refsafe-up, ccount-refsafe-smp, blockstop-guarded.")

let unfixed_t =
  Arg.(value & flag & info [ "unfixed" ] ~doc:"Use the corpus variant before the free fixes.")

let files_t = Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"KC source files.")

let jobs_t =
  Arg.(
    value
    & opt int (Par.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains (default: the host's recommended domain count). Output is \
           byte-identical for every value of $(docv).")

(* ---- boot ---- *)

let boot_cmd =
  let run mode unfixed =
    handle_frontend_errors (fun () ->
        let r = Ivy.Pipeline.booted ~fixed_frees:(not unfixed) mode in
        List.iter print_endline (Vm.Machine.console_lines r.Ivy.Pipeline.interp.Vm.Interp.m);
        Printf.printf "[%s] booted in %d cycles\n"
          (Ivy.Pipeline.mode_to_string mode)
          (Ivy.Pipeline.cycles r);
        (match r.Ivy.Pipeline.deputy_report with
        | Some dr -> Format.printf "%a@." Deputy.Dreport.pp dr
        | None -> ());
        (match r.Ivy.Pipeline.absint_stats with
        | Some st -> print_string (Absint.Discharge.render_stats st)
        | None -> ());
        match r.Ivy.Pipeline.ccount_report with
        | Some cr ->
            Format.printf "%a@." Ccount.Creport.pp cr;
            Format.printf "%a@." Ccount.Creport.pp_census (Ivy.Pipeline.free_census r)
        | None -> ())
  in
  Cmd.v (Cmd.info "boot" ~doc:"Boot the mini-kernel on the VM.")
    Term.(const run $ mode_t $ unfixed_t)

(* ---- run ---- *)

let run_cmd =
  let entry_t = Arg.(required & pos 0 (some string) None & info [] ~docv:"ENTRY") in
  let iters_t = Arg.(value & opt int 10 & info [ "iters"; "n" ] ~docv:"N") in
  let vm_stats_t =
    Arg.(
      value
      & flag
      & info [ "stats" ]
          ~doc:
            "Show compiled-VM optimizer statistics (block fusion, micro-op, specialization and \
             peephole site counts) and, when IVY_VM_PROFILE=1, the opcode execution profile.")
  in
  let run mode entry iters vm_stats =
    handle_frontend_errors (fun () ->
        let r = Ivy.Pipeline.booted mode in
        let v, cycles = Ivy.Pipeline.run_entry r entry iters in
        Printf.printf "%s(%d) = %Ld in %d cycles [%s]\n" entry iters v cycles
          (Ivy.Pipeline.mode_to_string mode);
        if vm_stats then begin
          print_string (Vm.Compile.render_opt_stats ());
          print_string (Vm.Compile.render_profile ())
        end)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload entry point (e.g. wl_lat_udp).")
    Term.(const run $ mode_t $ entry_t $ iters_t $ vm_stats_t)

(* ---- deputy ---- *)

let deputy_cmd =
  let run files =
    handle_frontend_errors (fun () ->
        let prog = load_files files ~fixed_frees:true in
        let report = Deputy.Dreport.deputize prog in
        Format.printf "%a@." Deputy.Dreport.pp report;
        List.iter
          (fun (msg, loc) -> Printf.printf "static error: %s at %s\n" msg (Kc.Loc.to_string loc))
          report.Deputy.Dreport.static_errors;
        if report.Deputy.Dreport.static_errors <> [] then exit 1)
  in
  Cmd.v
    (Cmd.info "deputy" ~doc:"Type/memory-safety conversion census (paper §2.1).")
    Term.(const run $ files_t)

(* ---- ccount ---- *)

let ccount_cmd =
  let profile_t =
    Arg.(
      value & opt string "up"
      & info [ "profile" ] ~docv:"P" ~doc:"Cost profile: up or smp.")
  in
  let refsafe_t =
    Arg.(
      value & flag
      & info [ "refsafe" ]
          ~doc:
            "Run the static refcount analysis first and strip the counter updates it proves \
             unobservable; the census is unchanged, the counter-maintenance work is smaller.")
  in
  let stats_t =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"With --refsafe, show the per-rule discharge breakdown.")
  in
  let run profile unfixed refsafe stats =
    handle_frontend_errors (fun () ->
        let profile = if profile = "smp" then Vm.Cost.Smp_p4 else Vm.Cost.Up in
        let mode =
          if refsafe then Ivy.Pipeline.Ccount_refsafe profile else Ivy.Pipeline.Ccount profile
        in
        let r = Ivy.Pipeline.booted ~fixed_frees:(not unfixed) mode in
        ignore (Ivy.Pipeline.run_entry r "wl_idle" 50);
        ignore (Ivy.Pipeline.run_entry r "wl_ssh_copy" 100);
        (match r.Ivy.Pipeline.ccount_report with
        | Some cr ->
            Format.printf "%a@." Ccount.Creport.pp cr;
            if stats then
              Option.iter
                (fun rs -> print_string (Refsafe.Discharge.render_stats rs))
                cr.Ccount.Creport.refsafe
        | None -> ());
        Format.printf "%a@." Ccount.Creport.pp_census (Ivy.Pipeline.free_census r))
  in
  Cmd.v
    (Cmd.info "ccount" ~doc:"Refcounted free checking after boot + light use (paper §2.2).")
    Term.(const run $ profile_t $ unfixed_t $ refsafe_t $ stats_t)

let infer_cmd =
  let run files =
    handle_frontend_errors (fun () ->
        let prog = load_files files ~fixed_frees:true in
        let suggestions = Deputy.Infer.suggest prog in
        Printf.printf "%d annotation suggestions\n" (List.length suggestions);
        List.iter (fun s -> Format.printf "  %a@." Deputy.Infer.pp_suggestion s) suggestions)
  in
  Cmd.v
    (Cmd.info "infer" ~doc:"Suggest Deputy annotations for unannotated parameters.")
    Term.(const run $ files_t)

let pointsto_t =
  let parse = function
    | "type" -> Ok Blockstop.Pointsto.Type_based
    | "field" -> Ok Blockstop.Pointsto.Field_based
    | s -> Error (`Msg (Printf.sprintf "unknown points-to mode %s (use type or field)" s))
  in
  let print fmt m =
    Format.pp_print_string fmt
      (match m with Blockstop.Pointsto.Type_based -> "type" | Blockstop.Pointsto.Field_based -> "field")
  in
  Arg.(
    value
    & opt (conv (parse, print)) Blockstop.Pointsto.Type_based
    & info [ "pointsto" ] ~docv:"MODE" ~doc:"Points-to precision: type or field.")

let annotdb_cmd =
  let out_t = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE") in
  let run files out mode =
    handle_frontend_errors (fun () ->
        let prog = load_files files ~fixed_frees:true in
        let db = Annotdb.populate ~mode (Engine.Context.create prog) in
        match out with
        | Some path ->
            Annotdb.save db path;
            Printf.printf "wrote %d facts to %s\n" (Annotdb.size db) path
        | None -> print_string (Annotdb.to_string db))
  in
  Cmd.v
    (Cmd.info "annotdb" ~doc:"Populate the shared annotation database (paper §3.2).")
    Term.(const run $ files_t $ out_t $ pointsto_t)

(* ---- check: every analysis over one shared engine context ---- *)

let json_t = Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as JSON.")

let stats_t =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Show engine artifact builds, cache hits and build times.")

(* One program, one context: the selected analyses' report (text, or
   one JSON line), with absint's per-function discharge table appended
   under text --stats, plus the context's artifact counters and whether
   any diagnostic is an error. *)
let check_program ~only ~jobs ~json ~stats files =
  let ctxt = Engine.Context.create ~jobs (load_files files ~fixed_frees:true) in
  let results = Ivy.Checks.run_all ~only ctxt in
  let absint_ran = List.mem_assoc "absint" results in
  let report =
    if json then
      let deputy = if absint_ran then Some (Engine.Context.deputized ctxt) else None in
      let ccount =
        if List.mem_assoc "refsafe" results then Some (Engine.Context.ccount_discharged ctxt)
        else None
      in
      Ivy.Report_fmt.render_diags_json ?deputy ?ccount results
    else
      Ivy.Report_fmt.render_diags results
      ^
      if stats && absint_ran then
        Absint.Discharge.render_stats (Engine.Context.deputized ctxt).Engine.Context.dstats
      else ""
  in
  let has_error =
    List.exists
      (fun (_, ds) ->
        List.exists (fun (d : Engine.Diag.t) -> d.Engine.Diag.severity = Engine.Diag.Error) ds)
      results
  in
  (report, Engine.Context.stats ctxt, has_error)

(* [ivy check] and every per-analysis subcommand. Exits 1 when any
   report holds an error-severity diagnostic. *)
let run_check ~only files jobs json stats =
  handle_frontend_errors (fun () ->
      (* Validate names before any work so a typo fails the same way
         in every sharding mode. *)
      List.iter
        (fun n ->
          if Ivy.Checks.find n = None then begin
            Printf.eprintf "unknown analysis %s (use %s)\n" n
              (String.concat ", " (List.map Engine.Analysis.name Ivy.Checks.all));
            exit 1
          end)
        only;
      let per_file =
        match files with
        | [] | [ _ ] ->
            (* One program: --jobs parallelizes inside the context
               (per-SCC-level absint summary solving). *)
            [ check_program ~only ~jobs ~json ~stats files ]
        | _ ->
            (* Several inputs shard per file: each worker owns one
               program and one context (contexts memoize in plain
               Hashtbls, so they are never shared across domains). *)
            Par.map ~jobs (fun path -> check_program ~only ~jobs:1 ~json ~stats [ path ]) files
      in
      let reports = List.map (fun (r, _, _) -> r) per_file in
      (match files with
      | _ :: _ :: _ when json ->
          print_string (Ivy.Report_fmt.render_file_reports_json (List.combine files reports))
      | _ :: _ :: _ -> List.iter2 (fun path r -> Printf.printf "== %s\n%s" path r) files reports
      | _ -> List.iter print_string reports);
      if stats then begin
        (* Deterministic counts under "artifacts"/"totals" in JSON,
           wall clock under "timing_s"; several files fold their
           per-worker counters. *)
        let merged = Engine.Context.merge_counters (List.map (fun (_, s, _) -> s) per_file) in
        print_string
          (if json then Ivy.Report_fmt.render_stats_json merged
           else Ivy.Report_fmt.render_stat_list merged)
      end;
      if List.exists (fun (_, _, err) -> err) per_file then exit 1)

let check_cmd =
  let only_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"NAMES"
          ~doc:"Comma-separated subset of analyses to run (default: all).")
  in
  let run files only =
    run_check
      ~only:
        (match only with
        | None -> []
        | Some s -> List.filter (fun n -> n <> "") (String.split_on_char ',' s))
      files
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run every registered analysis (blockstop, locksafe, stackcheck, errcheck, userck, \
          absint, refsafe) over one shared whole-program context. With several FILE arguments, each \
          file is analyzed as its own program, sharded across --jobs worker domains; reports \
          come back in argument order. Exits 1 when a report holds an error diagnostic.")
    Term.(const run $ files_t $ only_t $ jobs_t $ json_t $ stats_t)

(* One subcommand per registered analysis: [ivy NAME] is
   [ivy check --only NAME]. *)
let analysis_cmds =
  List.map
    (fun a ->
      let name = Engine.Analysis.name a in
      let run = run_check ~only:[ name ] in
      Cmd.v
        (Cmd.info name
           ~doc:
             (Printf.sprintf "%s; same as check --only %s."
                (String.capitalize_ascii (Engine.Analysis.doc a))
                name))
        Term.(const run $ files_t $ jobs_t $ json_t $ stats_t))
    Ivy.Checks.all

(* ---- serve: the incremental analysis daemon + its RPC client ---- *)

let socket_t =
  Arg.(
    value
    & opt string "/tmp/ivy.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path of the daemon.")

let serve_cmd =
  let watch_t =
    Arg.(
      value
      & opt (some dir) None
      & info [ "watch" ] ~docv:"DIR"
          ~doc:"Re-check the directory's .kc files whenever their contents change.")
  in
  let poll_t =
    Arg.(
      value & opt int 500
      & info [ "poll-ms" ] ~docv:"MS" ~doc:"Watch poll interval in milliseconds.")
  in
  let capacity_t =
    Arg.(
      value & opt int 8
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Warm programs kept resident (least recently used evicted beyond $(docv)).")
  in
  let run socket watch poll_ms capacity jobs =
    let t = Ivy.Serve.create ~capacity ~jobs () in
    Ivy.Serve.run ~socket ?watch ~poll_ms ~log:(fun s -> Printf.eprintf "%s\n%!" s) t
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the incremental analysis daemon: newline-delimited JSON-RPC (check, stats, \
          invalidate, shutdown) over a Unix socket, one warm artifact graph per program. A \
          re-check of an unchanged program is pure cache hits; an edit rebuilds only the \
          artifacts downstream of the changed functions.")
    Term.(const run $ socket_t $ watch_t $ poll_t $ capacity_t $ jobs_t)

let rpc_cmd =
  let module J = Ivy.Jsonx in
  let method_t =
    Arg.(
      required
      & pos 0 (some (enum [ ("check", `Check); ("stats", `Stats); ("invalidate", `Invalidate); ("shutdown", `Shutdown) ])) None
      & info [] ~docv:"METHOD" ~doc:"One of check, stats, invalidate, shutdown.")
  in
  let rpc_files_t =
    Arg.(value & pos_right 0 file [] & info [] ~docv:"FILE" ~doc:"KC source files to submit.")
  in
  let program_t =
    Arg.(
      value & opt string "default"
      & info [ "program" ] ~docv:"ID" ~doc:"Program id the daemon keys its warm context by.")
  in
  let corpus_t =
    Arg.(value & flag & info [ "corpus" ] ~doc:"Submit the bundled mini-kernel corpus.")
  in
  let only_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"NAMES" ~doc:"Comma-separated subset of analyses.")
  in
  let artifact_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "artifact" ] ~docv:"NAME"
          ~doc:"invalidate: artifact name (e.g. cfg); omitted = whole program.")
  in
  let param_t =
    Arg.(
      value & opt string ""
      & info [ "param" ] ~docv:"P" ~doc:"invalidate: artifact parameter (e.g. a function name).")
  in
  let expect_warm_t =
    Arg.(
      value & flag
      & info [ "expect-warm" ]
          ~doc:"check: exit non-zero unless the response says no artifact was built.")
  in
  let run socket meth files program corpus only artifact param expect_warm =
    let request_body =
      match meth with
      | `Check ->
          let params =
            [ ("program", J.Str program) ]
            @ (if corpus then [ ("corpus", J.Bool true) ]
               else
                 [
                   ( "files",
                     J.List
                       (List.map
                          (fun path ->
                            let ic = open_in_bin path in
                            let s = really_input_string ic (in_channel_length ic) in
                            close_in ic;
                            J.Obj [ ("path", J.Str path); ("source", J.Str s) ])
                          files) );
                 ])
            @
            match only with
            | None -> []
            | Some s ->
                [
                  ( "only",
                    J.List
                      (List.filter_map
                         (fun n -> if n = "" then None else Some (J.Str n))
                         (String.split_on_char ',' s)) );
                ]
          in
          if (not corpus) && files = [] then begin
            Printf.eprintf "rpc check needs FILE arguments or --corpus\n";
            exit 1
          end;
          J.Obj [ ("id", J.Num 1.0); ("method", J.Str "check"); ("params", J.Obj params) ]
      | `Stats -> J.Obj [ ("id", J.Num 1.0); ("method", J.Str "stats") ]
      | `Invalidate ->
          let params =
            [ ("program", J.Str program) ]
            @ (match artifact with Some a -> [ ("artifact", J.Str a) ] | None -> [])
            @ if param = "" then [] else [ ("param", J.Str param) ]
          in
          J.Obj
            [ ("id", J.Num 1.0); ("method", J.Str "invalidate"); ("params", J.Obj params) ]
      | `Shutdown -> J.Obj [ ("id", J.Num 1.0); ("method", J.Str "shutdown") ]
    in
    let response = Ivy.Serve.request ~socket (J.render request_body) in
    print_endline response;
    let j = try J.parse response with J.Parse_error _ -> J.Null in
    (match J.member "error" j with
    | Some e ->
        Printf.eprintf "rpc error: %s\n"
          (match J.member "message" e with Some (J.Str m) -> m | _ -> J.render e);
        exit 1
    | None -> ());
    if expect_warm then
      match Option.bind (J.member "result" j) (J.member "warm") with
      | Some (J.Bool true) -> ()
      | _ ->
          Printf.eprintf "expected a warm check (zero artifact builds), got a cold one\n";
          exit 1
  in
  Cmd.v
    (Cmd.info "rpc"
       ~doc:
         "Talk to a running ivy serve daemon: submit files (or the bundled corpus) for \
          checking, query stats, invalidate artifacts, or shut it down. Prints the raw \
          JSON response; --expect-warm turns the incrementality claim into an exit code.")
    Term.(
      const run $ socket_t $ method_t $ rpc_files_t $ program_t $ corpus_t $ only_t
      $ artifact_t $ param_t $ expect_warm_t)

(* ---- fuzz: generator + fault injector + differential oracle ---- *)

let fuzz_cmd =
  let seed_t =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Campaign root seed.")
  in
  let count_t =
    Arg.(value & opt int 100 & info [ "count" ] ~docv:"K" ~doc:"Number of generated cases.")
  in
  let shrink_t =
    Arg.(
      value & flag
      & info [ "shrink" ] ~doc:"Greedily minimize failing cases before writing repros.")
  in
  let out_t =
    Arg.(
      value
      & opt string "fuzz-repros"
      & info [ "out" ] ~docv:"DIR" ~doc:"Directory for shrunk .kc repro files.")
  in
  let dump_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "dump-case" ] ~docv:"I"
          ~doc:"Print the generated KC source of case $(docv) and exit (debugging aid).")
  in
  let quiet_t = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress progress lines.") in
  let run seed count shrink out dump quiet jobs =
    match dump with
    | Some i ->
        let p = Gen.Fuzz.case_program ~seed i in
        List.iter
          (fun (k, fn) -> Printf.printf "// label: %s in %s\n" (Gen.Fault.to_string k) fn)
          p.Gen.Prog.faults;
        print_string (Gen.Prog.render p)
    | None ->
        let log = if quiet then ignore else fun s -> Printf.eprintf "%s\n%!" s in
        let s = Gen.Fuzz.run ~shrink ~out ~log ~jobs ~seed ~count () in
        print_string (Gen.Fuzz.render_summary s);
        if s.Gen.Fuzz.s_failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generate random annotated kernels, inject known faults, and cross-check every \
          static verdict against VM execution (differential soundness testing). Cases shard \
          across --jobs worker domains; the summary is byte-identical for every value.")
    Term.(const run $ seed_t $ count_t $ shrink_t $ out_t $ dump_t $ quiet_t $ jobs_t)

(* ---- corpus ---- *)

let corpus_cmd =
  let erase_t =
    Arg.(value & flag & info [ "erase" ] ~doc:"Print the corpus with annotations erased.")
  in
  let run erase =
    handle_frontend_errors (fun () ->
        if erase then begin
          let prog = Kernel.Corpus.load () in
          print_string (Kc.Pretty.print_program ~erase:true prog)
        end
        else begin
          let prog = Kernel.Corpus.load () in
          Printf.printf "mini-kernel corpus: %d lines, %d functions, %d structs/unions\n"
            (Kernel.Corpus.line_count ())
            (List.length prog.Kc.Ir.funcs)
            (Hashtbl.length prog.Kc.Ir.comps);
          List.iter
            (fun (name, src) ->
              Printf.printf "  %-24s %5d lines\n" name
                (List.length (String.split_on_char '\n' src)))
            (Kernel.Corpus.sources ())
        end)
  in
  Cmd.v (Cmd.info "corpus" ~doc:"Describe (or erase) the bundled corpus.")
    Term.(const run $ erase_t)

(* ---- experiments ---- *)

let experiments_cmd =
  let which_t = Arg.(value & pos 0 string "all" & info [] ~docv:"WHICH") in
  let run which =
    handle_frontend_errors (fun () ->
        let t1 () = print_string (Ivy.Report_fmt.render_table1 (Ivy.Experiment.table1 ())) in
        let e1 () = print_string (Ivy.Report_fmt.render_e1 (Ivy.Experiment.e1_census ())) in
        let e2 () = print_string (Ivy.Report_fmt.render_e2 (Ivy.Experiment.e2_overheads ())) in
        let e3 () = print_string (Ivy.Report_fmt.render_e3 (Ivy.Experiment.e3_free_census ())) in
        let e4 () = print_string (Ivy.Report_fmt.render_e4 (Ivy.Experiment.e4_blockstop ())) in
        let e5 () = print_string (Ivy.Report_fmt.render_e5 (Ivy.Experiment.e5_driver_subset ())) in
        let a1 () =
          print_string
            (Ivy.Report_fmt.render_a1
               (Ivy.Experiment.a1_discharge_ablation ())
               (Ivy.Experiment.a2_leak_ablation ()))
        in
        let x1 () = print_string (Ivy.Report_fmt.render_x1 (Ivy.Experiment.x1_locksafe ())) in
        let x2 () = print_string (Ivy.Report_fmt.render_x2 (Ivy.Experiment.x2_stackcheck ())) in
        let x3 () = print_string (Ivy.Report_fmt.render_x3 (Ivy.Experiment.x3_errcheck_and_db ())) in
        let x4 () = print_string (Ivy.Report_fmt.render_x4 (Ivy.Experiment.x4_userck ())) in
        match which with
        | "t1" -> t1 ()
        | "e1" -> e1 ()
        | "e2" -> e2 ()
        | "e3" -> e3 ()
        | "e4" -> e4 ()
        | "e5" -> e5 ()
        | "a1" -> a1 ()
        | "x1" -> x1 ()
        | "x2" -> x2 ()
        | "x3" -> x3 ()
        | "x4" -> x4 ()
        | "all" ->
            t1 (); e1 (); e2 (); e3 (); e4 (); e5 (); a1 (); x1 (); x2 (); x3 (); x4 ()
        | other ->
            Printf.eprintf "unknown experiment %s (use t1, e1-e5, a1, x1-x4, all)\n" other;
            exit 1)
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the paper's tables and headline numbers.")
    Term.(const run $ which_t)

let main =
  let info =
    Cmd.info "ivy" ~version:"1.0.0"
      ~doc:"Sound program analysis for a Linux-like kernel (HotOS'07 reproduction)."
  in
  Cmd.group info
    ([
      boot_cmd; run_cmd; check_cmd; serve_cmd; rpc_cmd; deputy_cmd; ccount_cmd; infer_cmd;
      annotdb_cmd; fuzz_cmd; corpus_cmd; experiments_cmd;
    ]
    @ analysis_cmds)

let () = exit (Cmd.eval main)
