(* Golden tests locking the `ivy check --json` schema.

   Downstream consumers parse this output, so the exact field set,
   field order, severity spellings, null encoding of absent fix hints,
   the per-analysis "analyses" map (present even when empty) and the
   flattened, sorted "diagnostics" array are all part of the contract.
   If a change here is intentional, update the expected strings AND
   bump whatever consumes the schema. *)

let parse src = Kc.Typecheck.check_sources [ ("golden.kc", src) ]

let render src =
  let ctxt = Engine.Context.create (parse src) in
  let results = Ivy.Checks.run_all ctxt in
  (* mirror the CLI: the deputy counter object rides along whenever the
     absint analysis ran *)
  let deputy =
    if List.mem_assoc "absint" results then Some (Engine.Context.deputized ctxt) else None
  in
  (* likewise the ccount counter object whenever refsafe ran *)
  let ccount =
    if List.mem_assoc "refsafe" results then Some (Engine.Context.ccount_discharged ctxt)
    else None
  in
  Ivy.Report_fmt.render_diags_json ?deputy ?ccount results

(* One diagnostic from each of locksafe (error), errcheck (warning),
   userck (error) and stackcheck (info, null fix_hint): covers every
   severity spelling and both fix_hint encodings. [masked] adds four
   Deputy checks: two constant-index ones the Facts optimizer removes
   and two masked-index ones only the absint interval stage can prove,
   so the "deputy" counter object exercises both discharge paths.
   [leaky] drops its allocation on the n > 3 early return, so the
   seventh "refsafe" array carries a warning and the "ccount" counter
   object (register-allocated pointer locals, nothing instrumented or
   discharged) is locked alongside it. *)
let fixture =
  "void spin_lock(long *l);\n\
   void spin_unlock(long *l);\n\
   long la;\n\
   long lb;\n\
   int risky(int x) { if (x < 0) { return -5; } return 0; }\n\
   int caller(void) { risky(1); return 0; }\n\
   int one(void) { spin_lock(&la); spin_lock(&lb); spin_unlock(&lb); spin_unlock(&la); return 0; }\n\
   int two(void) { spin_lock(&lb); spin_lock(&la); spin_unlock(&la); spin_unlock(&lb); return 0; }\n\
   int bad(char * __user u) { return *u; }\n\
   long masked(int n) { long a[8]; int k = n & 7; a[2] = 1; a[k] = 5; return a[k]; }\n\
   void *kzalloc(long n, long f);\n\
   void kfree(void *p);\n\
   long leaky(long n) { long *p = kzalloc(16, 0); if (n > 3) { return -22; } kfree(p); return 0; }\n"

let expected =
  "{\"analyses\":{\"blockstop\":[],\"locksafe\":[{\"analysis\":\"locksafe\",\"severity\":\"error\",\"file\":\"golden.kc\",\"line\":7,\"col\":33,\"message\":\"locks la and lb are acquired in both orders (deadlock risk)\",\"fix_hint\":\"always acquire la before lb (or vice versa)\"}],\"stackcheck\":[{\"analysis\":\"stackcheck\",\"severity\":\"info\",\"file\":\"golden.kc\",\"line\":10,\"col\":1,\"message\":\"deepest bounded call chain: 96 bytes (masked)\",\"fix_hint\":null}],\"errcheck\":[{\"analysis\":\"errcheck\",\"severity\":\"warning\",\"file\":\"golden.kc\",\"line\":6,\"col\":20,\"message\":\"caller discards error result of risky\",\"fix_hint\":\"test the result of risky against its error codes\"}],\"userck\":[{\"analysis\":\"userck\",\"severity\":\"error\",\"file\":\"golden.kc\",\"line\":9,\"col\":28,\"message\":\"in bad: dereference of __user pointer (u)\",\"fix_hint\":\"stage the access through copy_from_user/copy_to_user\"}],\"absint\":[{\"analysis\":\"absint\",\"severity\":\"info\",\"file\":\"<builtin>\",\"line\":0,\"col\":0,\"message\":\"discharged 4 of 4 inserted checks (facts 2 + intervals 2 + relational 0); 0 dynamic checks remain\",\"fix_hint\":null},{\"analysis\":\"absint\",\"severity\":\"info\",\"file\":\"golden.kc\",\"line\":10,\"col\":1,\"message\":\"masked: proved 2 of 2 residual checks (7 fixpoint iterations, 0 widening points)\",\"fix_hint\":null}],\"refsafe\":[{\"analysis\":\"refsafe\",\"severity\":\"warning\",\"file\":\"golden.kc\",\"line\":13,\"col\":1,\"message\":\"leaky: missing put of p on error return\",\"fix_hint\":\"release the allocation before the error return\"}]},\"diagnostics\":[{\"analysis\":\"absint\",\"severity\":\"info\",\"file\":\"<builtin>\",\"line\":0,\"col\":0,\"message\":\"discharged 4 of 4 inserted checks (facts 2 + intervals 2 + relational 0); 0 dynamic checks remain\",\"fix_hint\":null},{\"analysis\":\"errcheck\",\"severity\":\"warning\",\"file\":\"golden.kc\",\"line\":6,\"col\":20,\"message\":\"caller discards error result of risky\",\"fix_hint\":\"test the result of risky against its error codes\"},{\"analysis\":\"locksafe\",\"severity\":\"error\",\"file\":\"golden.kc\",\"line\":7,\"col\":33,\"message\":\"locks la and lb are acquired in both orders (deadlock risk)\",\"fix_hint\":\"always acquire la before lb (or vice versa)\"},{\"analysis\":\"userck\",\"severity\":\"error\",\"file\":\"golden.kc\",\"line\":9,\"col\":28,\"message\":\"in bad: dereference of __user pointer (u)\",\"fix_hint\":\"stage the access through copy_from_user/copy_to_user\"},{\"analysis\":\"absint\",\"severity\":\"info\",\"file\":\"golden.kc\",\"line\":10,\"col\":1,\"message\":\"masked: proved 2 of 2 residual checks (7 fixpoint iterations, 0 widening points)\",\"fix_hint\":null},{\"analysis\":\"stackcheck\",\"severity\":\"info\",\"file\":\"golden.kc\",\"line\":10,\"col\":1,\"message\":\"deepest bounded call chain: 96 bytes (masked)\",\"fix_hint\":null},{\"analysis\":\"refsafe\",\"severity\":\"warning\",\"file\":\"golden.kc\",\"line\":13,\"col\":1,\"message\":\"leaky: missing put of p on error return\",\"fix_hint\":\"release the allocation before the error return\"}],\"deputy\":{\"checks_inserted\":4,\"facts_discharged\":2,\"absint_discharged\":2,\"absint_interval\":2,\"absint_relational\":0,\"residual\":0},\"ccount\":{\"sites_instrumented\":0,\"register_skipped\":2,\"refsafe_discharged\":0,\"residual\":0}}\n"

let test_schema_golden () = Alcotest.(check string) "exact JSON output" expected (render fixture)

let test_quiet_program_shape () =
  (* every analysis key is present (empty array), and the flattened
     diagnostics hold just stackcheck's informational summary *)
  let out = render "int f(void) { return 0; }\n" in
  let starts_with pre s =
    String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre
  in
  Alcotest.(check bool) "leads with the analyses map in registry order" true
    (starts_with "{\"analyses\":{\"blockstop\":[],\"locksafe\":[],\"stackcheck\":[{" out);
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "errcheck, userck, absint and refsafe keys present though empty" true
    (contains "\"errcheck\":[]" out && contains "\"userck\":[]" out
    && contains "\"absint\":[]" out && contains "\"refsafe\":[]" out);
  Alcotest.(check bool) "deputy counters present and all zero" true
    (contains
       "\"deputy\":{\"checks_inserted\":0,\"facts_discharged\":0,\"absint_discharged\":0,\"absint_interval\":0,\"absint_relational\":0,\"residual\":0}"
       out);
  Alcotest.(check bool) "ccount counters present and all zero" true
    (contains
       "\"ccount\":{\"sites_instrumented\":0,\"register_skipped\":0,\"refsafe_discharged\":0,\"residual\":0}"
       out);
  Alcotest.(check bool) "single info diagnostic" true
    (contains "\"diagnostics\":[{\"analysis\":\"stackcheck\",\"severity\":\"info\"" out)

let test_json_escaping () =
  (* field order of a single rendered diag, and escaping of quotes *)
  let d =
    Engine.Diag.make ~analysis:"errcheck" ~severity:Engine.Diag.Warning
      ~loc:{ Kc.Loc.file = "a\"b.kc"; line = 3; col = 1 }
      "say \"hi\"\n"
  in
  Alcotest.(check string) "escaped and ordered"
    "{\"analysis\":\"errcheck\",\"severity\":\"warning\",\"file\":\"a\\\"b.kc\",\"line\":3,\"col\":1,\"message\":\"say \\\"hi\\\"\\n\",\"fix_hint\":null}"
    (Engine.Diag.to_json d)

let test_multi_file_envelope () =
  (* `ivy check --json a.kc b.kc`: one {"file","report"} object per
     input in argument order; a control character in a path must still
     yield valid JSON *)
  let module J = Ivy.Jsonx in
  let paths = [ "dir/tab\there.kc"; "a.kc" ] in
  let reports = [ render fixture; render "int f(void) { return 0; }\n" ] in
  let out = Ivy.Report_fmt.render_file_reports_json (List.combine paths reports) in
  Alcotest.(check bool) "one line" true
    (String.index_opt out '\n' = Some (String.length out - 1));
  (* Jsonx.parse tolerates raw control characters; RFC 8259 does not *)
  Alcotest.(check bool) "no unescaped control character" true
    (String.for_all (fun c -> Char.code c >= 0x20) (String.trim out));
  match J.parse out with
  | J.List entries ->
      Alcotest.(check (list string)) "files in argument order" paths
        (List.map
           (fun e -> Option.value ~default:"" (Option.bind (J.member "file" e) J.to_string_opt))
           entries);
      Alcotest.(check (list string)) "reports spliced verbatim"
        (List.map String.trim reports)
        (List.map
           (fun e -> Option.fold ~none:"" ~some:J.render (J.member "report" e))
           entries)
  | _ -> Alcotest.fail "envelope is not a JSON array"

let () =
  Alcotest.run "check-json"
    [
      ( "golden",
        [
          Alcotest.test_case "full fixture" `Quick test_schema_golden;
          Alcotest.test_case "quiet program shape" `Quick test_quiet_program_shape;
          Alcotest.test_case "escaping and field order" `Quick test_json_escaping;
          Alcotest.test_case "multi-file envelope" `Quick test_multi_file_envelope;
        ] );
    ]
