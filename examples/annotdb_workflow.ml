(* The collaboration story of paper §3.2: "a collaborative database of
   source code information that would allow different researchers and
   tools to share and reuse information about publicly available
   source code".

   Run with:  dune exec examples/annotdb_workflow.exe

   Two "research groups" analyze different aspects of the same kernel,
   export their findings to annotation databases, merge them (manual
   facts win over tool-inferred ones), and a third party consumes the
   merged database to steer their own work. *)

let () =
  let prog = Kernel.Corpus.load () in
  let ctxt = Engine.Context.create prog in

  (* Group A cares about concurrency: they run BlockStop and record
     what may block, plus the annotations they wrote by hand. *)
  let db_a = Annotdb.create () in
  Annotdb.add_source_annotations db_a prog;
  Annotdb.add_blockstop_facts db_a (Engine.Context.blocking ctxt);
  Printf.printf "group A (concurrency): %d facts\n" (Annotdb.size db_a);

  (* Group B cares about resources: stack budgets and error codes,
     plus Deputy's annotation suggestions for the unannotated code. *)
  let db_b = Annotdb.create () in
  Annotdb.add_stackcheck_facts db_b
    (Stackcheck.analyze
       ~cg:(Engine.Context.callgraph ~mode:Blockstop.Pointsto.Field_based ctxt)
       prog);
  Annotdb.add_errcheck_facts db_b (Errcheck.analyze prog);
  Annotdb.add_infer_facts db_b prog;
  Printf.printf "group B (resources):   %d facts\n" (Annotdb.size db_b);

  (* The shared repository: merge both (through the serialized form,
     as they would exchange files). *)
  let a_text = Annotdb.to_string db_a in
  let b_text = Annotdb.to_string db_b in
  let shared = Annotdb.of_string a_text in
  Annotdb.merge ~into:shared (Annotdb.of_string b_text);
  Printf.printf "shared repository:     %d facts\n\n" (Annotdb.size shared);

  (* A consumer asks questions the paper imagines: which functions
     block? what stack does this path need? where are error codes? *)
  let blocking = Annotdb.by_kind shared "blocking" in
  Printf.printf "functions that may block: %d, e.g.\n" (List.length blocking);
  List.iteri
    (fun i f ->
      if i < 5 then
        Printf.printf "  %s  [%s]\n"
          (Annotdb.subject_to_string f.Annotdb.subject)
          (match f.Annotdb.provenance with
          | Annotdb.Manual -> "annotated by hand"
          | Annotdb.Inferred tool -> "inferred by " ^ tool))
    blocking;

  (match Annotdb.query shared ~kind:"stack_bytes" (Annotdb.Func "vfs_open") with
  | [ f ] -> Printf.printf "\nvfs_open needs at most %s bytes of stack\n" f.Annotdb.payload
  | _ -> ());

  (match Annotdb.query shared ~kind:"returns_err" (Annotdb.Func "vfs_open") with
  | f :: _ -> Printf.printf "vfs_open may return error codes: %s\n" f.Annotdb.payload
  | [] -> ());

  (* Provenance discipline: schedule's blocking fact was hand-written,
     so the merged database keeps the manual provenance even though
     BlockStop also inferred it. *)
  (match Annotdb.query shared ~kind:"blocking" (Annotdb.Func "schedule") with
  | [ f ] ->
      Printf.printf "\nschedule: blocking [%s] (manual wins over inferred on merge)\n"
        (Annotdb.provenance_to_string f.Annotdb.provenance)
  | _ -> ());

  (* And the suggestions channel: the converted corpus is fully
     annotated (so no suggestions there), but an incoming, not yet
     converted staging driver gets proposals a human can review before
     writing the annotations down. *)
  let staging =
    Kc.Typecheck.check_sources
      (Kernel.Corpus.sources ()
      @ [
          ( "drivers/staging_new.kc",
            "int stage_sum(int *samples, int n) {\n\
             int s = 0; int i;\n\
             for (i = 0; i < n; i++) { s += samples[i]; }\n\
             return s; }\n\
             int stage_peek(int *reg) { if (reg == 0) { return -1; } return *reg; }" );
        ])
  in
  let db_staging = Annotdb.create () in
  Annotdb.add_infer_facts db_staging staging;
  Annotdb.merge ~into:shared db_staging;
  let suggestions = Annotdb.by_kind shared "suggest_annot" in
  Printf.printf "\n%d annotation suggestions awaiting review (from the staging driver):\n"
    (List.length suggestions);
  List.iter
    (fun f ->
      Printf.printf "  %s: %s\n" (Annotdb.subject_to_string f.Annotdb.subject) f.Annotdb.payload)
    suggestions
