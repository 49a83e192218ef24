(* Tests for the artifact graph's content-hash invalidation: the
   fingerprint digests, warm re-checks (zero builds), edits rebuilding
   exactly the downstream artifacts and matching a cold context, the
   per-function absint nodes' early cutoff and soundness traps, seeded
   warm-equals-cold edit sequences over the kernel corpus and over
   generated programs, the recorded edges against the dependency lists
   they replaced, push invalidation along recorded edges, build self
   times, counter merging and the serve LRU. *)

let parse src = Kc.Typecheck.check_sources [ ("t.kc", src) ]

let preamble =
  "void *kmalloc(unsigned long size, int gfp) __blocking_if_gfp_wait;\n\
   void kfree(void * __opt p);\n\
   void spin_lock(long *l);\n\
   void spin_unlock(long *l);\n\
   void schedule(void) __blocking;\n\
   int request_irq(int irq, int (*handler)(int));\n"

let base_body = "int helper(int x) { return x + 1; }\n"
let edited_body = "int helper(int x) { return x + 2; }\n"

let prog_src body =
  preamble
  ^ "long the_lock;\n"
  ^ body
  ^ "int leaf(void) { schedule(); return 0; }\n\
     int work(void) {\n\
     \  spin_lock(&the_lock);\n\
     \  int r = helper(1);\n\
     \  spin_unlock(&the_lock);\n\
     \  return r;\n\
     }\n\
     int start_kernel(void) { work(); leaf(); return 0; }\n\
     int tbl[8];\n\
     int lookup(void) { int i = helper(1); return tbl[i]; }\n"

let find_fn prog name = Option.get (Kc.Ir.find_fun prog name)

let delta_of ctxt f =
  let before = Engine.Context.stats ctxt in
  let v = f () in
  (v, Engine.Graph.delta ~before (Engine.Context.stats ctxt))

let count_of field delta name =
  match
    List.find_opt (fun (s : Engine.Graph.stat) -> s.Engine.Graph.artifact = name) delta
  with
  | Some s -> field s
  | None -> 0

let builds_of = count_of (fun s -> s.Engine.Graph.builds)
let hits_of = count_of (fun s -> s.Engine.Graph.hits)

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                       *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_stable_across_reparse () =
  let a = Engine.Fingerprint.table_of (parse (prog_src base_body)) in
  let b = Engine.Fingerprint.table_of (parse (prog_src base_body)) in
  Alcotest.(check bool) "tables equal" true (Engine.Fingerprint.unchanged ~old:a b);
  Alcotest.(check string) "program digest equal" a.Engine.Fingerprint.t_program
    b.Engine.Fingerprint.t_program

let test_fingerprint_arith_edit_moves_one_digest () =
  let a = Engine.Fingerprint.table_of (parse (prog_src base_body)) in
  let b = Engine.Fingerprint.table_of (parse (prog_src edited_body)) in
  Alcotest.(check bool) "tables differ" false (Engine.Fingerprint.unchanged ~old:a b);
  let d = Engine.Fingerprint.diff ~old:a b in
  Alcotest.(check (list string)) "only helper changed" [ "helper" ]
    d.Engine.Fingerprint.d_changed;
  Alcotest.(check (list string)) "nothing added" [] d.Engine.Fingerprint.d_added;
  Alcotest.(check (list string)) "nothing removed" [] d.Engine.Fingerprint.d_removed;
  Alcotest.(check bool) "header unchanged" false d.Engine.Fingerprint.d_header_changed;
  Alcotest.(check bool) "program digest moved" false
    (String.equal a.Engine.Fingerprint.t_program b.Engine.Fingerprint.t_program)

let test_fingerprint_includes_locations () =
  (* Shifting a function down a line must change its digest: cached
     CFGs carry statement locations, and serving a stale one would
     report stale line numbers. *)
  let a = parse (prog_src base_body) in
  let b = parse (prog_src ("\n" ^ base_body)) in
  Alcotest.(check bool) "shifted helper has a new digest" false
    (String.equal
       (Engine.Fingerprint.fn (find_fn a "helper"))
       (Engine.Fingerprint.fn (find_fn b "helper")));
  (* Functions above an edit keep their digests: appending at the end
     of the file shifts nothing. *)
  let c = parse (prog_src base_body ^ "int tail(void) { return 9; }\n") in
  Alcotest.(check string) "helper digest stable below-edit"
    (Engine.Fingerprint.fn (find_fn a "helper"))
    (Engine.Fingerprint.fn (find_fn c "helper"))

(* The streaming serializer writes the reference's bytes: every digest
   of the corpus, of its instrumented views (checks and refcount
   updates) and of generated programs is the reference's. *)
let same_as_reference msg prog =
  match Ref_fingerprint.mismatch prog with
  | None -> ()
  | Some what -> Alcotest.failf "%s: %s digest differs from the reference" msg what

let views prog =
  let ctxt = Engine.Context.create prog in
  [
    prog;
    fst (Engine.Context.instrumented ctxt);
    (Engine.Context.deputized ctxt).Engine.Context.dprog;
    (Engine.Context.ccount_discharged ctxt).Engine.Context.cprog;
  ]

(* Constants at the edges of the integer writer: negative, beyond an
   OCaml int, [Int64.min_int], in every place a number is written. *)
let edge_constants =
  "enum e { NEG = -3, HUGE = 0x7fffffffffffffff };\n\
   long g1 = 0x8000000000000000;\n\
   long g2 = -4611686018427387905;\n\
   int arr[3] = { -1, 2, -3 };\n\
   int f(int x) __returns_err(-22, -5) __frame_hint(64) {\n\
  \  switch (x) { case -1: return NEG; case 4611686018427387904: return 2;\n\
  \    case -4611686018427387904: return 3; default: break; }\n\
  \  return -4611686018427387904;\n\
   }\n"

let test_fingerprint_matches_reference () =
  List.iteri (fun i p -> same_as_reference (Printf.sprintf "edge constants view %d" i) p)
    (views (parse edge_constants));
  List.iter
    (fun (name, sources) ->
      List.iteri
        (fun i p -> same_as_reference (Printf.sprintf "%s view %d" name i) p)
        (views (Kc.Typecheck.check_sources sources)))
    [ ("corpus", Kernel.Corpus.sources ()); ("workloads", Kernel.Workloads.sources ()) ];
  let fns = ref 0 in
  for i = 0 to 499 do
    let prog = parse (Gen.Prog.render (Gen.Fuzz.case_program ~seed:23 i)) in
    fns := !fns + List.length prog.Kc.Ir.funcs;
    List.iter (same_as_reference (Printf.sprintf "case %d" i))
      (if i mod 10 = 0 then views prog else [ prog ])
  done;
  Alcotest.(check bool) "generated programs define functions" true (!fns > 2000)

(* The Printf-based serializer allocated ~8 words per source byte
   (631 k minor words for the corpus and its workloads). *)
let test_fingerprint_alloc () =
  let prog = Kc.Typecheck.check_sources (Kernel.Workloads.sources ()) in
  ignore (Engine.Fingerprint.table_of prog);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Engine.Fingerprint.table_of prog));
  let words = Gc.minor_words () -. w0 in
  if words > 100_000. then
    Alcotest.failf "table_of on the corpus allocated %.0f minor words (fence: 100k)" words

(* ------------------------------------------------------------------ *)
(* Warm re-check: the acceptance criterion                            *)
(* ------------------------------------------------------------------ *)

let report ctxt = Ivy.Report_fmt.render_diags_json (Ivy.Checks.run_all ctxt)

let test_warm_recheck_zero_builds () =
  let ctxt = Engine.Context.create (parse (prog_src base_body)) in
  let first = report ctxt in
  (* Resubmit a re-parse of identical source: nothing may rebuild. *)
  let u = Engine.Context.update ctxt (parse (prog_src base_body)) in
  Alcotest.(check bool) "update says unchanged" true u.Engine.Context.u_unchanged;
  let second, delta = delta_of ctxt (fun () -> report ctxt) in
  Alcotest.(check int) "zero artifact builds" 0 (Engine.Graph.total_builds delta);
  Alcotest.(check int) "zero invalidations" 0 (Engine.Graph.total_invalidations delta);
  Alcotest.(check bool) "every analysis served from cache" true
    (Engine.Graph.total_hits delta > 0);
  Alcotest.(check string) "report byte-identical" first second

let test_single_function_edit_rebuilds_only_downstream () =
  let ctxt = Engine.Context.create (parse (prog_src base_body)) in
  ignore (report ctxt);
  ignore (Engine.Context.vm_compiled ctxt);
  let u = Engine.Context.update ctxt (parse (prog_src edited_body)) in
  Alcotest.(check (list string)) "helper changed" [ "helper" ] u.Engine.Context.u_changed;
  Alcotest.(check bool) "cfg(helper) and dependents dropped" true
    (u.Engine.Context.u_dropped > 0);
  let second, delta =
    delta_of ctxt (fun () ->
        let r = report ctxt in
        ignore (Engine.Context.vm_compiled ctxt);
        r)
  in
  (* Only the edited function's CFG rebuilds; every whole-program
     artifact keys on the program digest, so each rebuilds exactly
     once — none twice, and none is served stale. *)
  Alcotest.(check int) "one cfg rebuild (helper only)" 1 (builds_of delta "cfg");
  List.iter
    (fun name -> Alcotest.(check int) (name ^ " rebuilt once") 1 (builds_of delta name))
    [
      "pointsto(type-based)"; "pointsto(field-based)"; "callgraph(type-based)";
      "callgraph(field-based)"; "blocking(type-based)"; "irq-handlers";
      "refsafe-summaries"; "deputy-instrumented"; "absint-summaries"; "deputized(absint)";
      "vm-compiled"; "ccount-discharged";
    ];
  (* And the incremental report equals a cold context's report. *)
  let cold = Engine.Context.create (parse (prog_src edited_body)) in
  Alcotest.(check string) "report byte-identical to cold" (report cold) second;
  (* Early cutoff: [x + 2], like [x + 1], leaves helper's summary at the
     int range, so only helper's own summary node is solved again, and
     the discharge node of lookup (helper's one caller holding a check)
     is served warm. The same holds for a dead local. *)
  let absint_delta body =
    ignore (Engine.Context.update ctxt (parse (prog_src body)));
    snd (delta_of ctxt (fun () -> report ctxt))
  in
  let cutoff msg delta =
    Alcotest.(check int) (msg ^ ": one absint-summary rebuild (helper)") 1
      (builds_of delta "absint-summary");
    Alcotest.(check int) (msg ^ ": no absint-discharge rebuild") 0
      (builds_of delta "absint-discharge");
    Alcotest.(check int) (msg ^ ": lookup's discharge served warm") 1
      (hits_of delta "absint-discharge")
  in
  cutoff "arith edit" delta;
  cutoff "dead local" (absint_delta "int helper(int x) { int dead = 7; return x + 2; }\n");
  (* A new summary for helper re-keys lookup's discharge node. *)
  let literal = "int helper(int x) { return 3; }\n" in
  let delta = absint_delta literal in
  Alcotest.(check int) "literal: one absint-summary rebuild (helper)" 1
    (builds_of delta "absint-summary");
  Alcotest.(check int) "literal: lookup's discharge rebuilt" 1
    (builds_of delta "absint-discharge");
  Alcotest.(check string) "literal: report byte-identical to cold"
    (report (Engine.Context.create (parse (prog_src literal))))
    (report ctxt)

(* Warm must equal cold on the edits that change what the call graph
   and the pointer-flow summaries read, not just arithmetic. *)
let test_call_edit_surfaces_blockstop () =
  let called_body = "int helper(int x) { schedule(); return x + 1; }\n" in
  let blockstop_in_helper ctxt =
    List.exists
      (fun (d : Engine.Diag.t) ->
        d.Engine.Diag.analysis = "blockstop"
        && d.Engine.Diag.loc.Kc.Loc.line = 8 (* helper's line *))
      (Ivy.Checks.diags (Ivy.Checks.run_all ctxt))
  in
  let ctxt = Engine.Context.create (parse (prog_src base_body)) in
  Alcotest.(check bool) "no blockstop finding in helper before" false
    (blockstop_in_helper ctxt);
  let u = Engine.Context.update ctxt (parse (prog_src called_body)) in
  Alcotest.(check (list string)) "helper changed" [ "helper" ] u.Engine.Context.u_changed;
  Alcotest.(check bool) "helper now blocks under the lock" true (blockstop_in_helper ctxt);
  let cold = Engine.Context.create (parse (prog_src called_body)) in
  Alcotest.(check string) "report byte-identical to cold" (report cold) (report ctxt)

let test_pointer_edit_matches_cold () =
  let with_keep keep = "long *stash;\n" ^ base_body ^ keep in
  let before = with_keep "long *keep(long *p) { return &the_lock; }\n" in
  let after = with_keep "long *keep(long *p) { stash = p; return p; }\n" in
  let ctxt = Engine.Context.create (parse (prog_src before)) in
  ignore (report ctxt);
  (* No check reads [keep]'s summary, so the context never demands
     it: solve it over the context's program. *)
  let nonnull ctxt =
    Option.map
      (fun (a : Absint.Aval.t) -> a.Absint.Aval.nl = Absint.Nullness.Nonnull)
      (Absint.Transfer.SM.find_opt "keep"
         (Absint.Summary.compute (Engine.Context.program ctxt)))
  in
  let escapes ctxt =
    Option.map
      (fun (s : Refsafe.Summary.fsum) -> s.Refsafe.Summary.escaping_params)
      (Refsafe.Summary.lookup (Engine.Context.refsafe_summaries ctxt) "keep")
  in
  Alcotest.(check (option bool)) "keep returns non-null before" (Some true) (nonnull ctxt);
  Alcotest.(check (option (list int))) "p does not escape before" (Some []) (escapes ctxt);
  let u = Engine.Context.update ctxt (parse (prog_src after)) in
  Alcotest.(check (list string)) "keep changed" [ "keep" ] u.Engine.Context.u_changed;
  let warm, delta = delta_of ctxt (fun () -> report ctxt) in
  Alcotest.(check int) "refsafe-summaries rebuilt once" 1 (builds_of delta "refsafe-summaries");
  Alcotest.(check (option bool)) "keep may return null after" (Some false) (nonnull ctxt);
  Alcotest.(check (option (list int))) "p escapes after" (Some [ 0 ]) (escapes ctxt);
  let cold = Engine.Context.create (parse (prog_src after)) in
  Alcotest.(check string) "report byte-identical to cold" (report cold) warm

(* ------------------------------------------------------------------ *)
(* Per-function absint nodes: soundness traps                          *)
(* ------------------------------------------------------------------ *)

(* What a context serves: every analysis's diagnostics, the JSON
   report with the deputy and ccount counter objects, and the
   per-function discharge stats. *)
let served_view ctxt =
  let results = Ivy.Checks.run_all ctxt in
  let d = Engine.Context.deputized ctxt in
  ( results,
    Ivy.Report_fmt.render_diags_json ~deputy:d
      ~ccount:(Engine.Context.ccount_discharged ctxt)
      results,
    d.Engine.Context.dstats.Absint.Discharge.fstats )

let check_view msg ~cold warm =
  let cd, cr, cf = cold and wd, wr, wf = warm in
  List.iter2
    (fun (name, c) (_, w) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s: %s diagnostics equal cold" msg name)
        (List.map Engine.Diag.to_json c) (List.map Engine.Diag.to_json w))
    cd wd;
  Alcotest.(check string) (msg ^ ": report byte-identical to cold") cr wr;
  Alcotest.(check bool) (msg ^ ": fstats equal cold") true (cf = wf)

let check_matches_cold msg ctxt src =
  check_view msg ~cold:(served_view (Engine.Context.create (parse src))) (served_view ctxt)

let proved_in ctxt fname =
  let s =
    List.find
      (fun (s : Absint.Discharge.fstat) -> s.Absint.Discharge.fname = fname)
      (Engine.Context.deputized ctxt).Engine.Context.dstats.Absint.Discharge.fstats
  in
  (s.Absint.Discharge.proved, s.Absint.Discharge.seen)

let idx_src k =
  Printf.sprintf
    "int arr[4]; int idx(void) { return %d; } int use(void) { int i = idx(); return arr[i]; }\n" k

(* use's own source never changes, so a discharge key without idx's
   summary would serve the stale, unsound 2/2 after [return 7]. *)
let test_callee_return_edit_is_sound () =
  let ctxt = Engine.Context.create (parse (idx_src 3)) in
  Alcotest.(check (pair int int)) "cold: both bounds proved" (2, 2) (proved_in ctxt "use");
  let u = Engine.Context.update ctxt (parse (idx_src 7)) in
  Alcotest.(check (list string)) "idx changed" [ "idx" ] u.Engine.Context.u_changed;
  Alcotest.(check (pair int int)) "return 7: upper bound stays" (1, 2) (proved_in ctxt "use");
  check_matches_cold "return 7" ctxt (idx_src 7);
  ignore (Engine.Context.update ctxt (parse (idx_src 3)));
  Alcotest.(check (pair int int)) "revert: both bounds proved" (2, 2) (proved_in ctxt "use");
  check_matches_cold "revert" ctxt (idx_src 3)

let count_src n =
  Printf.sprintf
    "long sum(long * __count(%d) b) { return b[0]; }\n\
     long use(long * __count(n) q, long n) { long k = n; if (k < 6) return 0; return sum(q); }\n"
    n

(* A callee annotation edit leaves the caller's source digest alone but
   changes its instrumented body (the count-flow check at the call), so
   the caller's discharge node must be re-keyed. *)
let test_callee_annotation_edit_matches_cold () =
  let ctxt = Engine.Context.create (parse (count_src 4)) in
  Alcotest.(check (pair int int)) "count 4: count flow proved" (1, 1) (proved_in ctxt "use");
  let u = Engine.Context.update ctxt (parse (count_src 8)) in
  Alcotest.(check (list string)) "only sum changed" [ "sum" ] u.Engine.Context.u_changed;
  let _, delta = delta_of ctxt (fun () -> served_view ctxt) in
  Alcotest.(check int) "use's discharge rebuilt" 1 (builds_of delta "absint-discharge");
  Alcotest.(check (pair int int)) "count 8: count flow stays" (0, 1) (proved_in ctxt "use");
  check_matches_cold "annotation edit" ctxt (count_src 8)

(* ------------------------------------------------------------------ *)
(* Seeded warm = cold sequence over the kernel corpus                 *)
(* ------------------------------------------------------------------ *)

(* Seeded one-function edits that keep every line in place (statement
   locations are part of a function's digest): a dead local declared
   right after the body's opening brace, a new literal in a
   [return <digits>;] of an int-returning function, or a revert of the
   previous step. Each step changes exactly one function's digest. *)
module Corpus_edits = struct
  let marker = " long ivy_dead_ = "

  let find_sub s ~from ~until needle =
    let n = String.length needle in
    let rec go i =
      if i + n > until then None else if String.sub s i n = needle then Some i else go (i + 1)
    in
    go from

  let digits_from s i =
    let j = ref i in
    while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do
      incr j
    done;
    !j

  (* [lo, hi): the body of the function defined at [line]. *)
  let body s line =
    let rec line_start pos l =
      if l = line then Some pos
      else Option.bind (String.index_from_opt s pos '\n') (fun i -> line_start (i + 1) (l + 1))
    in
    Option.bind (line_start 0 1) (fun pos ->
        Option.bind (String.index_from_opt s pos '{') (fun lb ->
            let rec go i depth =
              if i >= String.length s then None
              else
                match s.[i] with
                | '{' -> go (i + 1) (depth + 1)
                | '}' -> if depth = 1 then Some (lb + 1, i) else go (i + 1) (depth - 1)
                | _ -> go (i + 1) depth
            in
            go lb 0))

  let splice s lo hi text = String.sub s 0 lo ^ text ^ String.sub s hi (String.length s - hi)

  (* Replace the digits at [d] with [k], or None if they already read [k]. *)
  let set_digits s d k =
    let e = digits_from s d in
    if String.sub s d (e - d) = k then None else Some (splice s d e k)

  let edit rng ~int_ret s line =
    Option.bind (body s line) (fun (lo, hi) ->
        let k = string_of_int (1 + Random.State.int rng 99) in
        let ret =
          if int_ret then
            Option.bind (find_sub s ~from:lo ~until:hi "return ") (fun i ->
                let e = digits_from s (i + 7) in
                if e > i + 7 && e < hi && s.[e] = ';' then Some (i + 7) else None)
          else None
        in
        match ret with
        | Some d when Random.State.bool rng -> set_digits s d k
        | _ ->
            if find_sub s ~from:lo ~until:(lo + String.length marker) marker = Some lo then
              set_digits s (lo + String.length marker) k
            else Some (splice s lo lo (marker ^ k ^ ";")))

  (* [n] steps of sources, each one function away from the one before,
     with their parse. *)
  let steps ~seed ~n =
    let rng = Random.State.make [| seed |] in
    let sources = Kernel.Corpus.sources () in
    let prog = Kc.Typecheck.check_sources sources in
    let files = List.map fst sources in
    let fns =
      Array.of_list
        (List.filter_map
           (fun (fd : Kc.Ir.fundec) ->
             let l = fd.Kc.Ir.floc in
             if fd.Kc.Ir.fextern || not (List.mem l.Kc.Loc.file files) then None
             else
               Some
                 ( l.Kc.Loc.file,
                   l.Kc.Loc.line,
                   match fd.Kc.Ir.fret with Kc.Ir.Tint _ -> true | _ -> false ))
           prog.Kc.Ir.funcs)
    in
    let one_fn_away ~old srcs =
      match Kc.Typecheck.check_sources srcs with
      | exception _ -> None
      | p ->
          let fps = Engine.Fingerprint.table_of p in
          let d = Engine.Fingerprint.diff ~old fps in
          if
            List.length d.Engine.Fingerprint.d_changed = 1
            && d.Engine.Fingerprint.d_added = [] && d.Engine.Fingerprint.d_removed = []
            && not d.Engine.Fingerprint.d_header_changed
          then Some (p, fps)
          else None
    in
    let rec go k ~prev ~cur ~fps acc =
      if k = 0 then List.rev acc
      else
        let candidate =
          match prev with
          | Some p when Random.State.int rng 4 = 0 -> Some p
          | _ ->
              let file, line, int_ret = fns.(Random.State.int rng (Array.length fns)) in
              Option.map
                (fun s' -> List.map (fun (f, s) -> (f, if f = file then s' else s)) cur)
                (edit rng ~int_ret (List.assoc file cur) line)
        in
        match Option.bind candidate (fun c -> Option.map (fun r -> (c, r)) (one_fn_away ~old:fps c)) with
        | Some (next, (p, fps')) -> go (k - 1) ~prev:(Some cur) ~cur:next ~fps:fps' ((next, p) :: acc)
        | None -> go k ~prev ~cur ~fps acc
    in
    go n ~prev:None ~cur:sources ~fps:(Engine.Fingerprint.table_of prog) []
end

let test_corpus_edit_sequence_warm_equals_cold () =
  let steps = Corpus_edits.steps ~seed:18 ~n:40 in
  let cold = List.map (fun (_, p) -> served_view (Engine.Context.create p)) steps in
  let ctxt = Engine.Context.create (Kc.Typecheck.check_sources (Kernel.Corpus.sources ())) in
  ignore (served_view ctxt);
  List.iteri
    (fun i ((srcs, _), cold) ->
      let u = Engine.Context.update ctxt (Kc.Typecheck.check_sources srcs) in
      let msg = Printf.sprintf "step %d (%s)" i (String.concat "," u.Engine.Context.u_changed) in
      check_view msg ~cold (served_view ctxt))
    (List.combine steps cold)

(* Structural equality over everything the program holds: variable
   and function ids, temporaries and locals included. *)
let check_same_program msg (a : Kc.Ir.program) (b : Kc.Ir.program) =
  let sorted h = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []) in
  Alcotest.(check bool) (msg ^ ": same program") true
    (a.Kc.Ir.globals = b.Kc.Ir.globals
    && a.Kc.Ir.funcs = b.Kc.Ir.funcs
    && sorted a.Kc.Ir.comps = sorted b.Kc.Ir.comps
    && sorted a.Kc.Ir.enum_items = sorted b.Kc.Ir.enum_items)

(* A parse that reuses units of an earlier one checks to the program a
   fresh parse does, over a seeded corpus edit sequence; each step
   reparses only the unit it edited. The last two steps declare a name
   in the first unit that the last unit casts to, first as a variable
   and then as a typedef: the last unit's bytes do not change, but its
   parse does, so reusing it must depend on the typedef names in
   scope (a new typedef reparses every later unit). *)
let test_parse_reuse_equals_fresh_parse () =
  let first = Kernel.Corpus.sources () in
  let edit_unit k f srcs = List.mapi (fun i (p, s) -> (p, if i = k then f s else s)) srcs in
  let last = List.length first - 1 in
  let probe = edit_unit last (fun s -> s ^ "int ivy_probe(int a) { return (ivy_t) - a; }\n") in
  let seeded = List.map fst (Corpus_edits.steps ~seed:23 ~n:30) in
  let as_var = probe (edit_unit 0 (fun s -> s ^ "long ivy_t;\n") (List.nth seeded 29)) in
  let as_type = probe (edit_unit 0 (fun s -> s ^ "typedef int ivy_t;\n") (List.nth seeded 29)) in
  let prev = Kc.Typecheck.parse_units first in
  Alcotest.(check int) "a parse without prev parses every unit" (List.length first)
    (Kc.Typecheck.reparsed prev);
  ignore
    (List.fold_left
      (fun (i, prev) (srcs, expect) ->
        let p = Kc.Typecheck.parse_units ~prev srcs in
        let msg = Printf.sprintf "step %d" i in
        check_same_program msg (Kc.Typecheck.check_sources srcs) (Kc.Typecheck.check_units p);
        Alcotest.(check int) (msg ^ ": units reparsed") expect (Kc.Typecheck.reparsed p);
        (i + 1, p))
      (0, prev)
      (List.map (fun s -> (s, 1)) seeded
      @ [ (as_var, 2); (as_type, List.length first); (as_type, 0) ]));
  let cast prog =
    Engine.Fingerprint.fn (Option.get (Kc.Ir.find_fun prog "ivy_probe"))
  in
  Alcotest.(check bool) "the typedef changes how the last unit parses" false
    (String.equal
       (cast (Kc.Typecheck.check_sources as_var))
       (cast (Kc.Typecheck.check_sources as_type)))

(* Consecutive fuzz cases share a file name and most function names,
   so pushing them through one context exercises changed, added and
   removed functions and header edits, not just body edits. *)
let test_fuzz_sequence_warm_equals_cold () =
  let progs =
    List.init 200 (fun i ->
        parse (Gen.Prog.render (Gen.Fuzz.case_program ~seed:22 i)))
  in
  let cold = List.map (fun p -> served_view (Engine.Context.create p)) progs in
  let ctxt = Engine.Context.create (parse (prog_src base_body)) in
  ignore (served_view ctxt);
  let updates =
    List.mapi
      (fun i (p, cold) ->
        let u = Engine.Context.update ctxt p in
        check_view (Printf.sprintf "case %d" i) ~cold (served_view ctxt);
        u)
      (List.combine progs cold)
  in
  List.iter
    (fun (what, seen) ->
      Alcotest.(check bool) ("some step " ^ what) true (List.exists seen updates))
    [
      ("changes a function", fun u -> u.Engine.Context.u_changed <> []);
      ("adds a function", fun u -> u.Engine.Context.u_added <> []);
      ("removes a function", fun u -> u.Engine.Context.u_removed <> []);
      ("edits the header", fun u -> u.Engine.Context.u_header_changed);
    ]

let test_update_keeps_program_object_when_unchanged () =
  let prog = parse (prog_src base_body) in
  let ctxt = Engine.Context.create prog in
  ignore (Engine.Context.update ctxt (parse (prog_src base_body)));
  Alcotest.(check bool) "old program object kept (VM memo stays warm)" true
    (Engine.Context.program ctxt == prog);
  ignore (Engine.Context.update ctxt (parse (prog_src edited_body)));
  Alcotest.(check bool) "edited program swapped in" true
    (Engine.Context.program ctxt != prog)

let test_removed_function_invalidates () =
  let ctxt = Engine.Context.create (parse (prog_src base_body)) in
  ignore (report ctxt);
  let without_leaf =
    preamble ^ "long the_lock;\n" ^ base_body
    ^ "int work(void) { spin_lock(&the_lock); int r = helper(1); spin_unlock(&the_lock); \
       return r; }\n\
       int start_kernel(void) { work(); return 0; }\n"
  in
  let u = Engine.Context.update ctxt (parse without_leaf) in
  Alcotest.(check bool) "leaf removed" true (List.mem "leaf" u.Engine.Context.u_removed);
  let fresh, delta = delta_of ctxt (fun () -> report ctxt) in
  Alcotest.(check bool) "some rebuild happened" true (Engine.Graph.total_builds delta > 0);
  let cold = Engine.Context.create (parse without_leaf) in
  Alcotest.(check string) "report matches cold context" (report cold) fresh

(* ------------------------------------------------------------------ *)
(* Recorded edges against the hand-written lists they replaced        *)
(* ------------------------------------------------------------------ *)

(* The reference model: the dependency edges the engine declared by
   hand before the graph recorded them — the five [~deps] lists of the
   context's getters and the seven analyses' [deps], entry for entry —
   instantiated at the points-to modes one [run_all] builds, less the
   edges to the relational-interface artifact, since deleted. The lists
   were only a lower bound: they missed [check(refsafe)]'s reads of
   the CFGs it checks. *)
module Ref_deps = struct
  module K = Engine.Context.Key
  module P = Blockstop.Pointsto

  let table (prog : Kc.Ir.program) : (Engine.Graph.key * Engine.Graph.key list) list =
    let defined =
      List.filter_map
        (fun (fd : Kc.Ir.fundec) -> if fd.Kc.Ir.fextern then None else Some fd.Kc.Ir.fname)
        prog.Kc.Ir.funcs
    in
    [
      (K.callgraph P.Type_based, [ K.pointsto P.Type_based ]);
      (K.callgraph P.Field_based, [ K.pointsto P.Field_based ]);
      (K.blocking P.Type_based, [ K.callgraph P.Type_based ]);
      (K.summaries, K.instrumented :: List.map K.cfg defined);
      (K.deputized, [ K.summaries; K.instrumented ]);
      (K.ccount_discharged, [ K.refsafe_summaries ]);
      (K.check "blockstop", [ K.blocking P.Type_based ]);
      (K.check "locksafe", [ K.irq_handlers ]);
      (K.check "stackcheck", [ K.callgraph P.Field_based ]);
      (K.check "errcheck", []);
      (K.check "userck", []);
      (K.check "absint", [ K.deputized ]);
      (K.check "refsafe", [ K.refsafe_summaries; K.ccount_discharged ]);
    ]
end

let show (k : Engine.Graph.key) =
  if k.Engine.Graph.param = "" then k.Engine.Graph.name
  else Printf.sprintf "%s(%s)" k.Engine.Graph.name k.Engine.Graph.param

(* One fresh cold context per (dependent, dependency) pair, so no pair
   sees another's drops. Invalidating [cfg(kstrlen)] must also drop
   [check(refsafe)], which fetches the CFG of every function it checks
   through the context: the edge the declared lists missed. *)
let test_recorded_edges_cover_declared () =
  let prog = Kernel.Corpus.load () in
  let drops dep dependents =
    let ctxt = Engine.Context.create prog in
    ignore (Ivy.Checks.run_all ctxt);
    let g = Engine.Context.graph ctxt in
    List.iter
      (fun k -> Alcotest.(check bool) (show k ^ " built by run_all") true (Engine.Graph.mem g k))
      (dep :: dependents);
    ignore (Engine.Context.invalidate ctxt dep);
    List.iter
      (fun k ->
        Alcotest.(check bool)
          (Printf.sprintf "invalidating %s drops %s" (show dep) (show k))
          false (Engine.Graph.mem g k))
      dependents
  in
  List.iter
    (fun (dependent, deps) -> List.iter (fun dep -> drops dep [ dependent ]) deps)
    (Ref_deps.table prog);
  drops (Engine.Context.Key.cfg "kstrlen") [ Engine.Context.Key.check "refsafe" ]

(* ------------------------------------------------------------------ *)
(* Graph units: push invalidation, counters, LRU                      *)
(* ------------------------------------------------------------------ *)

(* [reading_get g slot ~reads ~fp name v] builds [name] to [v],
   fetching each [(key, fp)] of [reads] inside the build: those
   fetches are the node's edges. *)
let reading_get g slot ?(reads = []) ~fp name v =
  let get name ~fp build = Engine.Graph.get g slot (Engine.Graph.key name) ~fp build in
  get name ~fp (fun () ->
      List.iter (fun (r, rfp) -> ignore (get r ~fp:rfp (fun () -> 0))) reads;
      v)

let test_graph_push_invalidation () =
  let g = Engine.Graph.create () in
  let slot : int Engine.Graph.slot = Engine.Graph.slot () in
  let get name reads v =
    reading_get g slot ~reads:(List.map (fun r -> (r, "fp")) reads) ~fp:"fp" name v
  in
  ignore (get "a" [] 1);
  ignore (get "b" [ "a" ] 2);
  ignore (get "c" [ "b" ] 3);
  ignore (get "d" [] 4);
  (* Dropping the root takes the chain with it, but not the bystander. *)
  Alcotest.(check int) "a,b,c dropped" 3 (Engine.Graph.invalidate g (Engine.Graph.key "a"));
  Alcotest.(check bool) "d survives" true (Engine.Graph.mem g (Engine.Graph.key "d"));
  Alcotest.(check bool) "c gone" false (Engine.Graph.mem g (Engine.Graph.key "c"));
  (* Rebuilding after the drop counts as builds, not hits. *)
  ignore (get "a" [] 1);
  let stats = Engine.Graph.stats g in
  let find n =
    List.find (fun (s : Engine.Graph.stat) -> s.Engine.Graph.artifact = n) stats
  in
  Alcotest.(check int) "a built twice" 2 (find "a").Engine.Graph.builds;
  Alcotest.(check int) "a invalidated once" 1 (find "a").Engine.Graph.invalidations

let test_graph_dep_stamp_staleness () =
  let g = Engine.Graph.create () in
  let slot : int Engine.Graph.slot = Engine.Graph.slot () in
  ignore (reading_get g slot ~fp:"v1" "up" 1);
  ignore (reading_get g slot ~reads:[ ("up", "v1") ] ~fp:"d1" "down" 10);
  (* Rebuild the upstream under a new hash: the downstream's recorded
     read stamp no longer matches, so its own unchanged hash must not
     save it. *)
  ignore (reading_get g slot ~fp:"v2" "up" 2);
  Alcotest.(check int) "downstream rebuilt on stale dep stamp" 20
    (reading_get g slot ~reads:[ ("up", "v2") ] ~fp:"d1" "down" 20)

let test_graph_build_self_time () =
  let g = Engine.Graph.create () in
  let slot : int Engine.Graph.slot = Engine.Graph.slot () in
  let busy () =
    let until = Int64.add (Monotonic_clock.now ()) 5_000_000L in
    while Monotonic_clock.now () < until do
      ()
    done;
    1
  in
  (* The outer artifact's only work is to fetch the busy inner one. *)
  let t0 = Monotonic_clock.now () in
  ignore
    (Engine.Graph.get g slot (Engine.Graph.key "outer") ~fp:"fp" (fun () ->
         Engine.Graph.get g slot (Engine.Graph.key "inner") ~fp:"fp" busy));
  let wall = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9 in
  let seconds name =
    (List.find
       (fun (s : Engine.Graph.stat) -> s.Engine.Graph.artifact = name)
       (Engine.Graph.stats g))
      .Engine.Graph.seconds
  in
  Alcotest.(check bool) "outer self time below inner" true (seconds "outer" < seconds "inner");
  Alcotest.(check bool) "inner charged its busy work" true (seconds "inner" >= 0.005);
  Alcotest.(check bool) "self times sum to at most the wall time" true
    (seconds "outer" +. seconds "inner" <= wall)

let test_merge_counters () =
  let s artifact builds hits invalidations seconds =
    { Engine.Graph.artifact; builds; hits; invalidations; seconds }
  in
  let merged =
    Engine.Context.merge_counters
      [ [ s "cfg" 2 1 1 0.5; s "pointsto" 1 0 0 0.1 ]; [ s "cfg" 1 4 0 0.25 ]; [] ]
  in
  Alcotest.(check int) "two artifacts" 2 (List.length merged);
  (match merged with
  | [ cfg; pt ] ->
      Alcotest.(check string) "sorted by name" "cfg" cfg.Engine.Graph.artifact;
      Alcotest.(check int) "builds summed" 3 cfg.Engine.Graph.builds;
      Alcotest.(check int) "hits summed" 5 cfg.Engine.Graph.hits;
      Alcotest.(check int) "invalidations summed" 1 cfg.Engine.Graph.invalidations;
      Alcotest.(check bool) "seconds summed" true
        (Float.abs (cfg.Engine.Graph.seconds -. 0.75) < 1e-9);
      Alcotest.(check string) "second artifact" "pointsto" pt.Engine.Graph.artifact
  | _ -> Alcotest.fail "expected exactly [cfg; pointsto]");
  (* Merging is order-insensitive. *)
  let flipped =
    Engine.Context.merge_counters [ [ s "cfg" 1 4 0 0.25 ]; [ s "pointsto" 1 0 0 0.1; s "cfg" 2 1 1 0.5 ] ]
  in
  Alcotest.(check bool) "order-insensitive" true (merged = flipped)

let test_lru_eviction () =
  let lru : int Engine.Graph.Lru.t = Engine.Graph.Lru.create ~capacity:2 in
  Alcotest.(check bool) "add under capacity" true (Engine.Graph.Lru.add lru "a" 1 = None);
  Alcotest.(check bool) "add under capacity" true (Engine.Graph.Lru.add lru "b" 2 = None);
  (* Touch a so b becomes the least recently used. *)
  Alcotest.(check (option int)) "find bumps recency" (Some 1) (Engine.Graph.Lru.find lru "a");
  Alcotest.(check (option (pair string int))) "b evicted at capacity" (Some ("b", 2))
    (Engine.Graph.Lru.add lru "c" 3);
  Alcotest.(check int) "size bounded" 2 (Engine.Graph.Lru.size lru);
  Alcotest.(check int) "eviction counted" 1 (Engine.Graph.Lru.evictions lru);
  Alcotest.(check bool) "b gone" false (Engine.Graph.Lru.mem lru "b");
  Alcotest.(check (list string)) "keys sorted" [ "a"; "c" ] (Engine.Graph.Lru.keys lru);
  (* Refreshing a resident key never evicts. *)
  Alcotest.(check bool) "refresh is not an insert" true
    (Engine.Graph.Lru.add lru "a" 10 = None);
  Alcotest.(check (option int)) "refresh updates the value" (Some 10)
    (Engine.Graph.Lru.find lru "a")

let () =
  Alcotest.run "incremental"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "stable across re-parse" `Quick
            test_fingerprint_stable_across_reparse;
          Alcotest.test_case "arith edit moves one digest" `Quick
            test_fingerprint_arith_edit_moves_one_digest;
          Alcotest.test_case "digests equal the reference serializer's" `Quick
            test_fingerprint_matches_reference;
          Alcotest.test_case "table_of allocation fence" `Quick test_fingerprint_alloc;
          Alcotest.test_case "locations are part of the digest" `Quick
            test_fingerprint_includes_locations;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "warm re-check has zero builds" `Quick
            test_warm_recheck_zero_builds;
          Alcotest.test_case "one-function edit rebuilds only downstream" `Quick
            test_single_function_edit_rebuilds_only_downstream;
          Alcotest.test_case "call edit surfaces blockstop" `Quick
            test_call_edit_surfaces_blockstop;
          Alcotest.test_case "pointer edit equals cold" `Quick
            test_pointer_edit_matches_cold;
          Alcotest.test_case "callee return edit is sound" `Quick
            test_callee_return_edit_is_sound;
          Alcotest.test_case "callee annotation edit equals cold" `Quick
            test_callee_annotation_edit_matches_cold;
          Alcotest.test_case "corpus edit sequence: warm equals cold" `Quick
            test_corpus_edit_sequence_warm_equals_cold;
          Alcotest.test_case "parse reuse equals a fresh parse" `Quick
            test_parse_reuse_equals_fresh_parse;
          Alcotest.test_case "fuzz case sequence: warm equals cold" `Quick
            test_fuzz_sequence_warm_equals_cold;
          Alcotest.test_case "unchanged update keeps the program object" `Quick
            test_update_keeps_program_object_when_unchanged;
          Alcotest.test_case "removed function invalidates" `Quick
            test_removed_function_invalidates;
        ] );
      ( "graph",
        [
          Alcotest.test_case "recorded edges cover the declared lists" `Quick
            test_recorded_edges_cover_declared;
          Alcotest.test_case "push invalidation follows recorded edges" `Quick
            test_graph_push_invalidation;
          Alcotest.test_case "stale dep stamp forces rebuild" `Quick
            test_graph_dep_stamp_staleness;
          Alcotest.test_case "build seconds are self times" `Quick
            test_graph_build_self_time;
          Alcotest.test_case "merge_counters sums per artifact" `Quick test_merge_counters;
          Alcotest.test_case "lru evicts least recently used" `Quick test_lru_eviction;
        ] );
    ]
