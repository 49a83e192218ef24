(* The CI regression gates. Each gate measures one property the
   paper's claim of cheap soundness rests on and compares it with a
   checked-in floor or ceiling:

   absint       share of the deputized corpus's residual checks that
                absint discharges (floor: bench/absint_floor.txt)
   absint-wall  product-domain over interval-only discharge wall time,
                median of alternating runs (ceiling:
                bench/absint_wall_ceiling.txt)
   vm           tree-walk over compiled E2 wall time, best of 3, the
                two engines' cycle counts equal (floor:
                bench/vm_floor.txt)
   refsafe      share of CCount's cycle overhead the refsafe gate
                removes, free census unchanged (floor:
                bench/refsafe_floor.txt)
   serve        share of the per-function absint and refsafe nodes a
                one-function edit rebuilds, resubmit warm, touch
                unchanged with zero builds, edit not warm (ceiling: 10%)

   Run with:  dune exec bench/main.exe -- [GATE...] [--json]

   With no gate named, every gate runs. Each prints its verdict line;
   once all selected gates have run, the process exits 1 if any
   failed. --json also writes the verdicts to bench-results.json
   (format in DESIGN.md §13). The paper's tables are `ivy experiments
   all`; per-layer timings are perfbench's. *)

(* [f ()] and the seconds it took. *)
let timed f =
  let t0 = Monotonic_clock.now () in
  let v = f () in
  (v, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9)

let best_of n f = List.fold_left Float.min infinity (List.init n (fun _ -> snd (timed f)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let pct part whole = 100.0 *. float_of_int part /. float_of_int whole

(* A checked-in bound: the first line of [path] that is neither blank
   nor a # comment. *)
let read_bound path =
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith (path ^ ": no bound found")
        | Some line ->
            let line = String.trim line in
            if line = "" || line.[0] = '#' then go () else float_of_string line
      in
      go ())

type bound = Floor of float | Ceiling of float

(* What a gate saw: the metric held against its bound, one line of
   context, and the invariants that did not hold (any one fails the
   gate whatever the metric reads). *)
type measurement = { value : float; detail : string; broken : string list }

type gate = {
  name : string;
  unit : string;
  bound : unit -> bound;
  measure : unit -> measurement;
}

let floor_in path () = Floor (read_bound path)
let ceiling_in path () = Ceiling (read_bound path)

(* The corpus instrumented by Deputy and Facts-optimized, as the
   engine context serves it to [ivy check], [ivy boot -m deputy] and
   the fuzz oracle. *)
let instrumented () =
  fst (Engine.Context.instrumented (Engine.Context.create (Kernel.Workloads.load ~fresh:true ())))

(* ------------------------------------------------------------------ *)
(* absint, absint-wall                                                *)
(* ------------------------------------------------------------------ *)

(* The verdict is the deputized view's, as [ivy check] and the fuzz
   oracle see it: the context owns the discharge. *)
let absint () =
  let module D = Absint.Discharge in
  let st =
    (Engine.Context.deputized (Engine.Context.create (Kernel.Workloads.load ~fresh:true ())))
      .Engine.Context.dstats
  in
  {
    value = D.rate st;
    detail =
      Printf.sprintf "%d of %d residual checks discharged (intervals %d + relational %d)"
        (D.checks_proved st) (D.checks_seen st) (D.checks_proved_iv st) (D.checks_proved_rel st);
    broken = [];
  }

(* The ratio, not a wall time, is fenced: both arms share the host,
   so it travels between machines. *)
let absint_wall_runs = 7

let absint_wall () =
  let iprog = instrumented () in
  let time_run ifaces =
    let prog = Kc.Ir.copy_program iprog in
    Gc.full_major ();
    snd (timed (fun () -> Absint.Discharge.run ?ifaces prog))
  in
  let runs =
    List.init absint_wall_runs (fun _ ->
        let p = time_run None in
        (p, time_run (Some Absint.Transfer.interval_only)))
  in
  let product = median (List.map fst runs) and interval = median (List.map snd runs) in
  {
    value = product /. interval;
    detail =
      Printf.sprintf "product %.1f ms, interval-only %.1f ms (median of %d)" (product *. 1e3)
        (interval *. 1e3) absint_wall_runs;
    broken = [];
  }

(* ------------------------------------------------------------------ *)
(* vm                                                                 *)
(* ------------------------------------------------------------------ *)

(* One E2-shaped run: boot the deputized corpus, run the boot script
   and the Table 1 schedule. Returns the machine's cycle count. *)
let e2_cycles ~engine prog =
  let t = Vm.Builtins.boot ~engine prog in
  ignore (Vm.Interp.run t Kernel.Corpus.boot_entry []);
  List.iter
    (fun (row : Kernel.Workloads.row) -> ignore (Vm.Interp.run t row.Kernel.Workloads.entry [ 3L ]))
    Kernel.Workloads.table1;
  t.Vm.Interp.m.Vm.Machine.cost.Vm.Cost.cycles

(* The program is parsed and instrumented off the clock. The first
   run on each engine is the warmup (the compiled one pays the compile
   there) and yields the cycle counts, which must agree exactly. *)
let vm () =
  let prog = instrumented () in
  let c_tree = e2_cycles ~engine:Vm.Interp.Tree prog in
  let c_comp = e2_cycles ~engine:Vm.Interp.Compiled prog in
  let best engine = best_of 3 (fun () -> ignore (e2_cycles ~engine prog)) in
  let t_tree = best Vm.Interp.Tree in
  let t_comp = best Vm.Interp.Compiled in
  {
    value = t_tree /. t_comp;
    detail =
      Printf.sprintf "E2 %d cycles; tree-walk %.2f ms, compiled %.2f ms (best of 3)" c_comp
        (t_tree *. 1e3) (t_comp *. 1e3);
    broken =
      (if c_tree = c_comp then []
       else
         [ Printf.sprintf "engine cycle divergence on E2 (tree %d, compiled %d)" c_tree c_comp ]);
  }

(* ------------------------------------------------------------------ *)
(* refsafe                                                            *)
(* ------------------------------------------------------------------ *)

(* A loop made of exactly the shapes the refsafe gate proves
   unobservable: stack-hosted pointer-field writes (rule R1) and a
   global publish/retire window (rule R3). The corpus itself takes an
   int-to-pointer cast (MMIO), which soundly disables the class/window
   rules there; hence a dedicated workload, as E2 isolates CCount's own
   cost. VM cycle counts are deterministic, so the share removed is a
   property of the analysis, not of the host. *)
let refsafe_src =
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

let refsafe_iters = 200

(* Boot one interpreter per arm and run the loop; returns the cycles
   and the free census. The gated arm boots the context's CCount view,
   the program the fuzz oracle judges. *)
let refsafe_arm arm =
  let prog = Kc.Typecheck.check_sources [ ("refsafe_bench.kc", refsafe_src) ] in
  let t =
    match arm with
    | `Base ->
        (* Same machine configuration, no instrumentation: isolates the
           counter-maintenance cycles from the workload's own. *)
        let t = Vm.Interp.create prog (Vm.Machine.create ~config:(Ccount.Creport.config ()) ()) in
        Vm.Builtins.install t;
        t
    | `Ccount -> fst (Ccount.Creport.ccount_boot prog)
    | `Gated ->
        (Ivy.Pipeline.of_context (Engine.Context.create prog) (Ivy.Pipeline.Ccount_refsafe Vm.Cost.Up))
          .Ivy.Pipeline.interp
  in
  ignore (Vm.Interp.run t "bench" [ Int64.of_int refsafe_iters ]);
  (t.Vm.Interp.m.Vm.Machine.cost.Vm.Cost.cycles, Vm.Machine.free_census t.Vm.Interp.m)

let refsafe () =
  let c_base, _ = refsafe_arm `Base in
  let c_plain, census_plain = refsafe_arm `Ccount in
  let c_gated, census_gated = refsafe_arm `Gated in
  let frees c = c.Vm.Machine.total_frees and bad c = c.Vm.Machine.bad in
  {
    value = (if c_plain = c_base then 0.0 else pct (c_plain - c_gated) (c_plain - c_base));
    detail =
      Printf.sprintf
        "%d-iteration loop: %d cycles uninstrumented, ccount %d, ccount+refsafe %d; %d frees, %d \
         bad"
        refsafe_iters c_base c_plain c_gated (frees census_plain) (bad census_plain);
    broken =
      (if frees census_plain = frees census_gated && bad census_plain = bad census_gated then []
       else
         [
           Printf.sprintf "the gate changed the free census (%d frees, %d bad against %d, %d)"
             (frees census_gated) (bad census_gated) (frees census_plain) (bad census_plain);
         ]);
  }

(* ------------------------------------------------------------------ *)
(* serve                                                              *)
(* ------------------------------------------------------------------ *)

let replace_first s ~sub ~by =
  let n = String.length sub and len = String.length s in
  let rec find i =
    if i + n > len then None
    else if String.sub s i n = sub then
      Some (String.sub s 0 i ^ by ^ String.sub s (i + n) (len - i - n))
    else find (i + 1)
  in
  find 0

(* The daemon's request handler, run in-process on the corpus: a cold
   check, a byte-identical resubmit (warm), a comment-only touch
   (re-parsed, cut off at the AST: an unchanged update and zero
   builds) and a one-function body edit (not warm). The edit must
   rebuild few of the per-function absint-summary/absint-discharge/
   refsafe-summary/refsafe-findings nodes, counted from each
   response's stats delta, so the gate is deterministic. *)
let serve () =
  let module J = Ivy.Jsonx in
  let req srcs =
    let file (p, s) = J.Obj [ ("path", J.Str p); ("source", J.Str s) ] in
    J.render
      (J.Obj
         [
           ("id", J.Num 1.0);
           ("method", J.Str "check");
           ("params", J.Obj [ ("program", J.Str "bench"); ("files", J.List (List.map file srcs)) ]);
         ])
  in
  let t = Ivy.Serve.create ~capacity:4 () in
  let check srcs =
    let (resp, _), s = timed (fun () -> Ivy.Serve.handle_line t (req srcs)) in
    (Option.value ~default:J.Null (J.member "result" (J.parse resp)), s *. 1e3)
  in
  let rec path j = function
    | [] -> Some j
    | k :: ks -> Option.bind (J.member k j) (fun j -> path j ks)
  in
  let warm r = path r [ "warm" ] = Some (J.Bool true) in
  let builds r nodes =
    List.fold_left
      (fun acc node ->
        match path r [ "stats"; "artifacts"; node; "builds" ] with
        | Some (J.Num n) -> acc + int_of_float n
        | _ -> acc)
      0 nodes
  in
  let absint_nodes = [ "absint-summary"; "absint-discharge" ] in
  let refsafe_nodes = [ "refsafe-summary"; "refsafe-findings" ] in
  let total_builds r =
    match path r [ "stats"; "totals"; "builds" ] with Some (J.Num n) -> int_of_float n | _ -> -1
  in
  let sources = Kernel.Corpus.sources () in
  let touched = List.map (fun (p, s) -> (p, s ^ "\n// bench touch\n")) sources in
  (* One arithmetic body edit in the first unit that has a [return 0;]. *)
  let rec edit = function
    | [] -> []
    | (p, s) :: rest -> (
        match replace_first s ~sub:"return 0;" ~by:"return 0 + 0;" with
        | Some s -> (p, s) :: rest
        | None -> (p, s) :: edit rest)
  in
  let r_cold, t_cold = check sources in
  let r_warm, t_warm = check sources in
  let r_touch, t_touch = check touched in
  let r_edit, t_edit = check (edit touched) in
  let cold = builds r_cold (absint_nodes @ refsafe_nodes)
  and edit = builds r_edit (absint_nodes @ refsafe_nodes) in
  let expect ok what = if ok then [] else [ what ] in
  {
    value = pct edit cold;
    detail =
      Printf.sprintf
        "per-function nodes rebuilt %d of %d (absint %d of %d, refsafe %d of %d); cold %.2f ms, \
         resubmit %.2f ms, touch %.2f ms, edit %.2f ms"
        edit cold (builds r_edit absint_nodes) (builds r_cold absint_nodes)
        (builds r_edit refsafe_nodes) (builds r_cold refsafe_nodes) t_cold t_warm t_touch t_edit;
    broken =
      expect (warm r_warm) "an identical resubmit was not warm"
      @ expect
          (path r_touch [ "update"; "unchanged" ] = Some (J.Bool true) && total_builds r_touch = 0)
          "a comment-only touch was not answered unchanged with zero builds"
      @ expect (not (warm r_edit)) "a body edit reported warm (stale artifacts served)"
      @ expect
          (builds r_cold absint_nodes > 0 && builds r_cold refsafe_nodes > 0)
          "the cold check built no absint or no refsafe node";
  }

(* ------------------------------------------------------------------ *)
(* The table and its loop                                             *)
(* ------------------------------------------------------------------ *)

let gates =
  [
    { name = "absint"; unit = "%"; bound = floor_in "bench/absint_floor.txt"; measure = absint };
    {
      name = "absint-wall";
      unit = "x";
      bound = ceiling_in "bench/absint_wall_ceiling.txt";
      measure = absint_wall;
    };
    { name = "vm"; unit = "x"; bound = floor_in "bench/vm_floor.txt"; measure = vm };
    { name = "refsafe"; unit = "%"; bound = floor_in "bench/refsafe_floor.txt"; measure = refsafe };
    { name = "serve"; unit = "%"; bound = (fun () -> Ceiling 10.0); measure = serve };
  ]

(* Runs one gate and prints its verdict: the metric, the bound and
   the context line, then each broken invariant. *)
let run (g : gate) =
  let bound = g.bound () in
  let m = g.measure () in
  let kind, b, within =
    match bound with
    | Floor b -> ("floor", b, m.value >= b)
    | Ceiling b -> ("ceiling", b, m.value <= b)
  in
  let ok = within && m.broken = [] in
  Printf.printf "%-4s %-11s %7.2f %s  %s %.2f  %s\n%!"
    (if ok then "ok" else "FAIL")
    g.name m.value g.unit kind b m.detail;
  List.iter (Printf.printf "     %s: %s\n%!" g.name) m.broken;
  (g, m.value, b, ok)

let json verdicts =
  let module J = Ivy.Jsonx in
  let num v = if Float.is_finite v then J.Num v else J.Null in
  J.render
    (J.Obj
       [
         ("bench", J.Str "ivy");
         ("format", J.Num 2.0);
         ( "gates",
           J.List
             (List.map
                (fun ((g : gate), value, bound, ok) ->
                  J.Obj
                    [
                      ("gate", J.Str g.name);
                      ("value", num value);
                      ("unit", J.Str g.unit);
                      ("bound", num bound);
                      ("ok", J.Bool ok);
                    ])
                verdicts) );
       ])

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let names = List.filter (( <> ) "--json") args in
  let selected =
    if names = [] then gates
    else
      List.map
        (fun n ->
          match List.find_opt (fun g -> g.name = n) gates with
          | Some g -> g
          | None ->
              Printf.eprintf "unknown gate %S; usage: main.exe [--json] [%s]...\n" n
                (String.concat "|" (List.map (fun g -> g.name) gates));
              exit 2)
        names
  in
  let verdicts = List.map run selected in
  if List.mem "--json" args then
    Out_channel.with_open_text "bench-results.json" (fun oc ->
        output_string oc (json verdicts ^ "\n"));
  match List.filter (fun (_, _, _, ok) -> not ok) verdicts with
  | [] -> ()
  | failed ->
      Printf.printf "%d of %d gates failed: %s\n" (List.length failed) (List.length verdicts)
        (String.concat ", " (List.map (fun ((g : gate), _, _, _) -> g.name) failed));
      exit 1
