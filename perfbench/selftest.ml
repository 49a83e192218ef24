(* The benchmark's own tests: every reference check rejects a wrong
   expected value, and every count a traced operation records repeats
   exactly when the workload is run twice with the same seed. *)

open Perfbench
module Ctx = Engine.Context
module J = Ivy.Jsonx

let expected_path = "expected/check-cold.json"

let is_ok = function Ok _ -> true | Error _ -> false
let accepts name r = Alcotest.(check bool) (name ^ " accepted") true (is_ok r)
let rejects name r = Alcotest.(check bool) (name ^ " rejected") false (is_ok r)

let check_cold_reference () =
  let expected = Work.read_file expected_path in
  let ctxt = Ctx.create (Kernel.Workloads.load ~fresh:true ()) in
  let results = Ivy.Checks.run_all ctxt in
  let verify ?(expected = expected) ?(discharged = (37, 80))
      ?(true_bugs = Kernel.Corpus.blockstop_true_bugs) () =
    Work.verify_check ~expected ~discharged ~true_bugs ctxt results
  in
  accepts "the pinned report" (verify ());
  rejects "a different report" (verify ~expected:(expected ^ " ") ());
  rejects "36 of 80 discharged" (verify ~discharged:(36, 80) ());
  rejects "an unflagged bug" (verify ~true_bugs:[ ("rd_interrupt", "kmalloc_bogus") ] ())

let serve_reference () =
  let sources = Kernel.Workloads.sources () in
  let daemon = Ivy.Serve.create ~jobs:1 () in
  let send srcs = fst (Ivy.Serve.handle_line daemon (Work.request ~id:1 srcs)) in
  ignore (send sources);
  let edits = Work.Edits.create ~seed:7 sources (Kc.Typecheck.check_sources sources) in
  let edited = Work.Edits.next edits in
  let srcs = Work.Edits.sources edits in
  let edit = send srcs and resubmit = send srcs in
  accepts "an edit" (Work.verify_response ~kind:Work.Edit ~edited edit);
  rejects "an edit checked as a resubmit" (Work.verify_response ~kind:Work.Resubmit ~edited edit);
  rejects "an edit of another function"
    (Work.verify_response ~kind:Work.Edit ~edited:(edited ^ "_other") edit);
  accepts "a resubmit" (Work.verify_response ~kind:Work.Resubmit ~edited resubmit);
  rejects "a resubmit checked as an edit" (Work.verify_response ~kind:Work.Edit ~edited resubmit);
  let report =
    Option.get (Option.bind (J.member "result" (J.parse resubmit)) (J.member "report"))
  in
  accepts "warm equals cold" (Work.verify_warm_cold ~warm_report:report srcs);
  let dropped =
    match report with
    | J.Obj fields ->
        J.Obj (List.map (fun (k, v) -> if k = "diagnostics" then (k, J.List []) else (k, v)) fields)
    | _ -> Alcotest.fail "report is not an object"
  in
  rejects "a warm report missing its diagnostics" (Work.verify_warm_cold ~warm_report:dropped srcs)

let fuzz_reference () =
  let s = Gen.Fuzz.run ~jobs:1 ~seed:3 ~count:4 () in
  accepts "a clean campaign" (Work.verify_summary s);
  let kind, _ = List.find (fun (_, n) -> n > 0) s.Gen.Fuzz.s_injected in
  let missed =
    List.map (fun (k, n) -> if k = kind then (k, n - 1) else (k, n)) s.Gen.Fuzz.s_detected
  in
  rejects "a missed fault" (Work.verify_summary { s with Gen.Fuzz.s_detected = missed });
  let failure =
    { Gen.Fuzz.c_idx = 0; c_seed = 0; c_labels = []; c_violations = [ Gen.Oracle.False_alarm "x" ];
      c_repro = None }
  in
  rejects "an oracle violation" (Work.verify_summary { s with Gen.Fuzz.s_failures = [ failure ] })

let vm_reference () =
  let prog = Kernel.Workloads.load ~fresh:true () in
  ignore (Deputy.Dreport.deputize ~optimize:true prog);
  let t = Vm.Builtins.boot ~engine:Vm.Interp.Tree prog in
  Work.e2_schedule t;
  let c = Layers.cycles t in
  accepts "the reference cycle count" (Work.verify_cycles ~reference:c t);
  rejects "one cycle more" (Work.verify_cycles ~reference:(c + 1) t)

(* One traced operation's counts after a fresh set-up. *)
let counts name ~seed =
  Span.start_op ~traced:false;
  let inst = Work.setup ~expected:expected_path name ~traced:true ~seed in
  Span.start_op ~traced:true;
  let r = inst.Work.op () in
  Span.tracing := false;
  (match r with Ok () -> () | Error e -> Alcotest.fail e);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, !v) :: acc) Span.counts [])

let counts_repeat name () =
  let first = counts name ~seed:5 in
  Alcotest.(check bool) "counts recorded" true (first <> []);
  Alcotest.(check (list (pair string int))) "same counts" first (counts name ~seed:5)

let () =
  Alcotest.run "perfbench"
    [
      ( "reference checks",
        [
          Alcotest.test_case "check-cold reference" `Quick check_cold_reference;
          Alcotest.test_case "serve-edit reference" `Quick serve_reference;
          Alcotest.test_case "fuzz-campaign reference" `Quick fuzz_reference;
          Alcotest.test_case "vm-e2 reference" `Quick vm_reference;
        ] );
      ( "counts repeat",
        List.map (fun name -> Alcotest.test_case name `Quick (counts_repeat name)) Work.names );
    ]
