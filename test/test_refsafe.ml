(* lib/refsafe: ownership imbalance findings on the canonical fault
   shapes (and silence on the clean ones), interprocedural SCC
   summaries, CCount discharge rules R1/R2/R3, and the soundness
   differential: a refsafe-gated CCount run must agree with the
   ungated run on result and free census while executing strictly
   fewer counter updates. *)

module I = Kc.Ir
module R = Refsafe

let parse src = Kc.Typecheck.check_sources [ ("t.kc", src) ]

let preamble =
  "typedef unsigned long size_t;\n\
   void *kzalloc(size_t size, int gfp) __blocking_if_gfp_wait;\n\
   void *kmalloc(size_t size, int gfp) __blocking_if_gfp_wait;\n\
   void kfree(void * __opt p);\n\
   int raise_irq(int irq);\n"

let p src = preamble ^ src

let fd_of prog name =
  match I.find_fun prog name with
  | Some fd -> fd
  | None -> Alcotest.failf "function %s not found" name

let summarize src =
  let prog = parse src in
  (prog, R.Summary.compute prog)

(* ------------------------------------------------------------------ *)
(* Interprocedural summaries                                          *)
(* ------------------------------------------------------------------ *)

let src_summ =
  p
    "void myfree(long * __opt q) { kfree(q); }\n\
     long *mkbuf(void) { return kzalloc(32, 0); }\n\
     long use_(long n) {\n\
     long *h = mkbuf();\n\
     if (h != 0) { h[0] = n; n = h[0]; myfree(h); }\n\
     return n; }\n\
     long irq_kick(void) { raise_irq(3); return 0; }\n\
     int selfr(int n) { if (n > 0) { return selfr(n - 1); } return 0; }\n"

let test_summary_interproc () =
  let _, s = summarize src_summ in
  let get name =
    match R.Summary.lookup s name with
    | Some f -> f
    | None -> Alcotest.failf "no summary for %s" name
  in
  let myfree = get "myfree" in
  Alcotest.(check bool) "myfree may_free" true myfree.R.Summary.may_free;
  Alcotest.(check (list int)) "myfree frees its formal" [ 0 ] myfree.R.Summary.freed_params;
  let mkbuf = get "mkbuf" in
  Alcotest.(check bool) "mkbuf returns alloc" true mkbuf.R.Summary.returns_alloc;
  Alcotest.(check bool) "mkbuf returns nothing else" false mkbuf.R.Summary.returns_other;
  Alcotest.(check bool) "mkbuf itself frees nothing" false mkbuf.R.Summary.may_free;
  let use_ = get "use_" in
  Alcotest.(check bool) "use_ frees transitively" true use_.R.Summary.may_free;
  Alcotest.(check bool) "use_ runs no handlers" false use_.R.Summary.runs_handlers;
  let irq = get "irq_kick" in
  Alcotest.(check bool) "raise_irq caller runs handlers" true irq.R.Summary.runs_handlers

let test_summary_recursion_conservative () =
  let _, s = summarize src_summ in
  match R.Summary.lookup s "selfr" with
  | None -> Alcotest.fail "no summary for selfr"
  | Some f ->
      (* Self-recursive functions get the conservative summary. *)
      Alcotest.(check bool) "recursive fn assumed to free" true f.R.Summary.may_free;
      Alcotest.(check bool) "recursive fn assumed to run handlers" true
        f.R.Summary.runs_handlers

(* ------------------------------------------------------------------ *)
(* Ownership imbalances                                               *)
(* ------------------------------------------------------------------ *)

let findings src fn =
  let prog, s = summarize src in
  R.Ownership.check s (fd_of prog fn)

let kinds fs = List.map (fun f -> f.R.Ownership.fkind) fs

let kind =
  Alcotest.testable
    (fun fmt k -> Format.pp_print_string fmt (R.Ownership.kind_to_string k))
    ( = )

let test_own_clean_silent () =
  let src =
    p
      "long *gslot;\n\
       long heapy(long n) {\n\
       long *hp = kzalloc(32, 0);\n\
       long res = n;\n\
       if (hp != 0) { hp[0] = res; gslot = hp; res = res + hp[0]; gslot = 0; kfree(hp); }\n\
       return res; }\n"
  in
  Alcotest.(check (list kind)) "publish/retire/free is clean" [] (kinds (findings src "heapy"))

let test_own_double_put () =
  let src =
    p
      "long dd(long n) {\n\
       long *h = kzalloc(32, 0);\n\
       long r = n;\n\
       if (h != 0) { h[0] = n; r = h[0]; kfree(h); kfree(h); }\n\
       return r; }\n"
  in
  match findings src "dd" with
  | [ f ] ->
      Alcotest.check kind "double put" R.Ownership.Double_put f.R.Ownership.fkind;
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "message names the function" true
        (contains f.R.Ownership.fmsg "dd")
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_own_missing_put () =
  let src =
    p
      "long mp(long n) {\n\
       long *h = kzalloc(32, 0);\n\
       if (h == 0) { return -12; }\n\
       h[0] = n;\n\
       if (n > 3) { return -22; }\n\
       kfree(h);\n\
       return 0; }\n"
  in
  (* The null-guard early return must NOT be flagged (branch
     refinement proves h is null there); the -22 error return must. *)
  Alcotest.(check (list kind)) "one missing-put" [ R.Ownership.Missing_put ]
    (kinds (findings src "mp"))

let test_own_ref_leak () =
  let src =
    p
      "long rl(long n) {\n\
       long *h = kzalloc(32, 0);\n\
       if (h != 0) { h[0] = n; n = h[0]; }\n\
       return n; }\n"
  in
  Alcotest.(check (list kind)) "one leak" [ R.Ownership.Leak ] (kinds (findings src "rl"))

let test_own_put_on_error_path () =
  let src =
    p
      "long *eslot;\n\
       long pe(long n) {\n\
       long *h = kzalloc(32, 0);\n\
       if (h != 0) { eslot = h; h[0] = n; n = h[0]; kfree(h); eslot = 0; }\n\
       return n; }\n"
  in
  Alcotest.(check (list kind)) "one put-on-error-path" [ R.Ownership.Put_on_error_path ]
    (kinds (findings src "pe"))

let test_own_retire_before_put_silent () =
  let src =
    p
      "long *xslot;\n\
       long okp(long n) {\n\
       long *h = kzalloc(32, 0);\n\
       if (h != 0) { xslot = h; h[0] = n; n = h[0]; xslot = 0; kfree(h); }\n\
       return n; }\n"
  in
  Alcotest.(check (list kind)) "retire-then-free is clean" [] (kinds (findings src "okp"))

(* ------------------------------------------------------------------ *)
(* CCount discharge                                                   *)
(* ------------------------------------------------------------------ *)

let count_updates (prog : I.program) =
  let n = ref 0 in
  List.iter
    (fun (fd : I.fundec) ->
      if not fd.I.fextern then
        I.iter_instrs (function I.Irc_update _ -> incr n | _ -> ()) fd.I.fbody)
    prog.I.funcs;
  !n

let discharge_stats src =
  let prog = parse src in
  let _stats, _info = Ccount.Rc_instrument.instrument_program prog in
  let before = count_updates prog in
  let st = R.Discharge.run prog in
  (st, before, count_updates prog)

let test_discharge_r1_stack_host () =
  let src =
    p
      "struct pair { long *a; long *b; };\n\
       long r1(long n) {\n\
       struct pair pr;\n\
       long *h = kzalloc(16, 0);\n\
       pr.a = h;\n\
       pr.b = 0;\n\
       if (pr.a != 0) { n = n + 1; }\n\
       kfree(h);\n\
       return n; }\n"
  in
  let st, before, after = discharge_stats src in
  Alcotest.(check bool) "stack-host updates discharged" true (st.R.Discharge.stack_host >= 2);
  Alcotest.(check int) "all updates gone" 0 after;
  Alcotest.(check int) "seen matches census" before st.R.Discharge.updates_seen

let test_discharge_r2_never_freed () =
  let src =
    p
      "long *gbuf;\n\
       long r2(long n) {\n\
       long *h = kzalloc(16, 0);\n\
       gbuf = h;\n\
       n = n + 1;\n\
       gbuf = 0;\n\
       return n; }\n"
  in
  let st, _, after = discharge_stats src in
  (* No kfree in the whole program: the pointee class is never freed,
     so its counters are unobservable. *)
  Alcotest.(check int) "never-freed discharges both updates" 2 st.R.Discharge.never_freed;
  Alcotest.(check int) "all updates gone" 0 after

let test_discharge_r3_window () =
  let src =
    p
      "long *gs3;\n\
       long r3(long n) {\n\
       long *hp = kzalloc(32, 0);\n\
       if (hp != 0) { hp[0] = n; gs3 = hp; n = n + hp[0]; gs3 = 0; kfree(hp); }\n\
       return n; }\n"
  in
  let st, _, after = discharge_stats src in
  (* kfree(hp) frees the class, so R2 cannot fire; the publish/retire
     pair is a provable window. *)
  Alcotest.(check int) "window discharges publish+retire" 2 st.R.Discharge.publish_window;
  Alcotest.(check int) "no R2 here" 0 st.R.Discharge.never_freed;
  Alcotest.(check int) "all updates gone" 0 after

let test_discharge_keeps_broken_window () =
  let src =
    p
      "long *gsx;\n\
       long rx(long n) {\n\
       long *hp = kzalloc(32, 0);\n\
       if (hp != 0) { gsx = hp; n = n + hp[0]; kfree(hp); gsx = 0; }\n\
       return n; }\n"
  in
  let st, before, after = discharge_stats src in
  (* The free lands inside the publish window, so the updates are
     observable (the census must report the dangling publish) and
     must survive. *)
  Alcotest.(check int) "nothing discharged" 0 (R.Discharge.discharged st);
  Alcotest.(check int) "updates kept" before after

let test_discharge_forging_disables_r2 () =
  let src =
    p
      "long *gbuf2;\n\
       long rf(long n) {\n\
       long *h = kzalloc(16, 0);\n\
       long *forged = (long *)(5000 + n);\n\
       gbuf2 = h;\n\
       gbuf2 = 0;\n\
       return n + (forged != 0); }\n"
  in
  let st, before, after = discharge_stats src in
  Alcotest.(check bool) "forging detected" true st.R.Discharge.forged;
  Alcotest.(check int) "R2/R3 off under forging" before after

(* ------------------------------------------------------------------ *)
(* Soundness differential: gated vs ungated CCount                    *)
(* ------------------------------------------------------------------ *)

type obs = { res : int64; bad : int; total : int }

(* Boot [src] under CCount and run [main]. Both arms boot through
   [Ivy.Pipeline.of_context]: the gated arm is the engine context's
   CCount view, the program [ivy ccount --refsafe] and the fuzz oracle
   run, and the plain arm instruments a copy of the base program. *)
let observe ~refsafe src =
  let mode =
    if refsafe then Ivy.Pipeline.Ccount_refsafe Vm.Cost.Up else Ivy.Pipeline.Ccount Vm.Cost.Up
  in
  let r = Ivy.Pipeline.of_context (Engine.Context.create (parse src)) mode in
  let t = r.Ivy.Pipeline.interp in
  let res = Vm.Interp.run t "main" [] in
  let c = Vm.Machine.free_census t.Vm.Interp.m in
  (r, { res; bad = c.Vm.Machine.bad; total = c.Vm.Machine.total_frees })

let gated_stats (r : Ivy.Pipeline.run) =
  match r.Ivy.Pipeline.refsafe_stats with
  | None -> Alcotest.fail "gated run carries discharge stats"
  | Some st -> st

let agree name src =
  let _, plain = observe ~refsafe:false src in
  let r, gated = observe ~refsafe:true src in
  Alcotest.(check int64) (name ^ ": result agrees") plain.res gated.res;
  Alcotest.(check int) (name ^ ": bad frees agree") plain.bad gated.bad;
  Alcotest.(check int) (name ^ ": total frees agree") plain.total gated.total;
  gated_stats r

let test_differential_clean_shapes () =
  let src =
    p
      "long *gslot;\n\
       struct pair { long *a; long *b; };\n\
       long work(long n) {\n\
       long *hp = kzalloc(32, 0);\n\
       struct pair pr;\n\
       pr.a = hp;\n\
       pr.b = 0;\n\
       long res = n;\n\
       if (hp != 0) { hp[0] = res; gslot = hp; res = res + hp[0]; gslot = 0; kfree(hp); }\n\
       return res; }\n\
       int main(void) { return (int)work(7); }\n"
  in
  let st = agree "clean" src in
  Alcotest.(check bool) "something discharged" true (R.Discharge.discharged st > 0)

let test_differential_bad_free_census_preserved () =
  (* A dangling publish: the ungated run reports one bad free, and the
     gate must not remove the updates that make it visible. *)
  let src =
    p
      "long *gd;\n\
       int main(void) {\n\
       long *h = kzalloc(16, 0);\n\
       gd = h;\n\
       kfree(h);\n\
       gd = 0;\n\
       return 0; }\n"
  in
  let _, plain = observe ~refsafe:false src in
  Alcotest.(check int) "ungated census sees the dangling free" 1 plain.bad;
  ignore (agree "dangling" src)

(* ------------------------------------------------------------------ *)
(* Generated corpus: agreement + strictly fewer updates               *)
(* ------------------------------------------------------------------ *)

let corpus_obs ~refsafe (gp : Gen.Prog.t) =
  let r, obs = observe ~refsafe (Gen.Prog.render gp) in
  (r, obs, count_updates r.Ivy.Pipeline.prog)

let check_seed_agreement seed =
  let gp = Gen.Generate.clean seed in
  let _, plain, kept_plain = corpus_obs ~refsafe:false gp in
  let r, gated, kept_gated = corpus_obs ~refsafe:true gp in
  let st = gated_stats r in
  if plain.res <> gated.res || plain.bad <> gated.bad || plain.total <> gated.total then
    Alcotest.failf "seed %d: gated run diverges (res %Ld/%Ld bad %d/%d total %d/%d)" seed
      plain.res gated.res plain.bad gated.bad plain.total gated.total;
  if kept_gated > kept_plain then
    Alcotest.failf "seed %d: gate added updates?" seed;
  (st, kept_plain, kept_gated)

let test_corpus_agreement_and_fewer_updates () =
  let total_seen = ref 0 and total_discharged = ref 0 in
  for seed = 0 to 24 do
    let st, kept_plain, kept_gated = check_seed_agreement seed in
    total_seen := !total_seen + st.R.Discharge.updates_seen;
    total_discharged := !total_discharged + (kept_plain - kept_gated)
  done;
  Alcotest.(check bool) "corpus has instrumented updates" true (!total_seen > 0);
  Alcotest.(check bool) "corpus executes strictly fewer updates" true (!total_discharged > 0)

let prop_refsafe_gate_sound =
  QCheck2.Test.make ~name:"refsafe-gated ccount agrees with ungated ccount (clean corpus)"
    ~count:60
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let _ = check_seed_agreement seed in
      true)

(* ------------------------------------------------------------------ *)

let () =
  let seed =
    try int_of_string (Sys.getenv "QCHECK_SEED")
    with Not_found | Failure _ ->
      Random.self_init ();
      Random.int 1_000_000
  in
  Printf.printf "qcheck seed: %d (set QCHECK_SEED to override)\n%!" seed;
  let rand = Random.State.make [| seed |] in
  Alcotest.run "refsafe"
    [
      ( "summary",
        [
          Alcotest.test_case "interprocedural facts" `Quick test_summary_interproc;
          Alcotest.test_case "recursion is conservative" `Quick
            test_summary_recursion_conservative;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "clean publish/retire is silent" `Quick test_own_clean_silent;
          Alcotest.test_case "double put" `Quick test_own_double_put;
          Alcotest.test_case "missing put on error path" `Quick test_own_missing_put;
          Alcotest.test_case "ref leak" `Quick test_own_ref_leak;
          Alcotest.test_case "put on error path" `Quick test_own_put_on_error_path;
          Alcotest.test_case "retire before put is silent" `Quick
            test_own_retire_before_put_silent;
        ] );
      ( "discharge",
        [
          Alcotest.test_case "R1 stack host" `Quick test_discharge_r1_stack_host;
          Alcotest.test_case "R2 never freed" `Quick test_discharge_r2_never_freed;
          Alcotest.test_case "R3 publish window" `Quick test_discharge_r3_window;
          Alcotest.test_case "keeps broken window" `Quick test_discharge_keeps_broken_window;
          Alcotest.test_case "forging disables R2" `Quick test_discharge_forging_disables_r2;
        ] );
      ( "differential",
        [
          Alcotest.test_case "clean shapes agree" `Quick test_differential_clean_shapes;
          Alcotest.test_case "bad-free census preserved" `Quick
            test_differential_bad_free_census_preserved;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "agreement + strictly fewer updates" `Quick
            test_corpus_agreement_and_fewer_updates;
        ] );
      ("qcheck", List.map (QCheck_alcotest.to_alcotest ~rand) [ prop_refsafe_gate_sound ]);
    ]
