(* The per-experiment harness: every table and headline number of the
   paper's evaluation, regenerated from the corpus (see DESIGN.md §4
   for the experiment index). *)

(* ------------------------------------------------------------------ *)
(* T1: Table 1 — relative performance of the deputized kernel.        *)
(* ------------------------------------------------------------------ *)

type t1_row = {
  row : Kernel.Workloads.row;
  base_cycles : int;
  deputy_cycles : int;
  rel_perf : float; (* paper convention: bw = base/dep, lat = dep/base *)
}

let table1_row ?(mode = Pipeline.Deputy) (row : Kernel.Workloads.row) : t1_row =
  let measure m =
    let r = Pipeline.booted m in
    let _, c = Pipeline.run_entry r row.Kernel.Workloads.entry row.Kernel.Workloads.iters in
    c
  in
  let base_cycles = measure Pipeline.Base in
  let deputy_cycles = measure mode in
  let rel_perf =
    match row.Kernel.Workloads.kind with
    | Kernel.Workloads.Bw -> float_of_int base_cycles /. float_of_int deputy_cycles
    | Kernel.Workloads.Lat -> float_of_int deputy_cycles /. float_of_int base_cycles
  in
  { row; base_cycles; deputy_cycles; rel_perf }

let table1 ?mode () : t1_row list = List.map (table1_row ?mode) Kernel.Workloads.table1

(* ------------------------------------------------------------------ *)
(* E1: Deputy conversion census.                                      *)
(* ------------------------------------------------------------------ *)

type e1 = {
  lines : int;
  annotations : int;
  trusted_blocks : int;
  deputy : Deputy.Dreport.report;
}

(* The Deputy report of the context's instrumented view: the census
   counts the program [ivy check] and the Deputy runs use. *)
let deputy_report prog = snd (Engine.Context.instrumented (Engine.Context.create prog))

let e1_census () : e1 =
  let report = deputy_report (Kernel.Corpus.load ()) in
  {
    lines = Kernel.Corpus.line_count ();
    annotations = report.Deputy.Dreport.annotations;
    trusted_blocks = report.Deputy.Dreport.trusted_blocks;
    deputy = report;
  }

(* ------------------------------------------------------------------ *)
(* E2: CCount overheads for fork and module-loading, UP vs SMP.       *)
(* ------------------------------------------------------------------ *)

type e2_cell = {
  workload : string;
  profile : Vm.Cost.profile;
  base_cycles : int;
  ccount_cycles : int;
  overhead_pct : float;
}

let e2_cell ~(workload : string) ~(iters : int) (profile : Vm.Cost.profile) : e2_cell =
  let base =
    let r = Pipeline.booted Pipeline.Base in
    snd (Pipeline.run_entry r workload iters)
  in
  let ccount =
    let r = Pipeline.booted (Pipeline.Ccount profile) in
    snd (Pipeline.run_entry r workload iters)
  in
  {
    workload;
    profile;
    base_cycles = base;
    ccount_cycles = ccount;
    overhead_pct = 100.0 *. (float_of_int ccount -. float_of_int base) /. float_of_int base;
  }

let e2_overheads () : e2_cell list =
  [
    e2_cell ~workload:"wl_fork" ~iters:30 Vm.Cost.Up;
    e2_cell ~workload:"wl_fork" ~iters:30 Vm.Cost.Smp_p4;
    e2_cell ~workload:"wl_module_load" ~iters:10 Vm.Cost.Up;
    e2_cell ~workload:"wl_module_load" ~iters:10 Vm.Cost.Smp_p4;
  ]

(* ------------------------------------------------------------------ *)
(* E3: the free census: boot-to-login, then light use.                *)
(* ------------------------------------------------------------------ *)

type e3 = {
  boot_census : Vm.Machine.free_census; (* fixed variant, boot only *)
  light_use_census : Vm.Machine.free_census; (* fixed, after idle + ssh copy *)
  unfixed_boot_census : Vm.Machine.free_census; (* before the fixes *)
  delayed_scopes : int; (* the paper's "26 delayed free scopes" analogue *)
}

let count_delayed_scopes (prog : Kc.Ir.program) : int =
  let n = ref 0 in
  List.iter
    (fun (fd : Kc.Ir.fundec) ->
      Kc.Ir.iter_stmts
        (fun s -> match s.Kc.Ir.sk with Kc.Ir.Sdelayed _ -> incr n | _ -> ())
        fd.Kc.Ir.fbody)
    prog.Kc.Ir.funcs;
  !n

let e3_free_census () : e3 =
  let fixed = Pipeline.booted (Pipeline.Ccount Vm.Cost.Up) in
  let boot_census = Pipeline.free_census fixed in
  ignore (Pipeline.run_entry fixed "wl_idle" 50);
  ignore (Pipeline.run_entry fixed "wl_ssh_copy" 200);
  let light_use_census = Pipeline.free_census fixed in
  let unfixed = Pipeline.booted ~fixed_frees:false (Pipeline.Ccount Vm.Cost.Up) in
  let unfixed_boot_census = Pipeline.free_census unfixed in
  { boot_census; light_use_census; unfixed_boot_census; delayed_scopes = count_delayed_scopes fixed.Pipeline.prog }

(* ------------------------------------------------------------------ *)
(* E4: BlockStop results.                                             *)
(* ------------------------------------------------------------------ *)

type e4 = {
  unguarded : Blockstop.Breport.report;
  guarded : Blockstop.Breport.report;
  field_based : Blockstop.Breport.report;
  true_bugs : (string * string) list; (* seeded, VM-verified *)
  bugs_found : int;
  false_positives : int;
  checks_inserted : int;
  ground_truth_verified : bool;
}

let e4_blockstop () : e4 =
  let ctxt = Engine.Context.create (Kernel.Workloads.load ()) in
  let cg mode = Engine.Context.callgraph ~mode ctxt in
  let unguarded = Blockstop.Breport.analyze (cg Blockstop.Pointsto.Type_based) in
  let guarded =
    Blockstop.Breport.analyze ~guard:Kernel.Corpus.blockstop_guards
      (cg Blockstop.Pointsto.Type_based)
  in
  let field_based = Blockstop.Breport.analyze (cg Blockstop.Pointsto.Field_based) in
  let distinct = Blockstop.Breport.distinct_warnings unguarded in
  let true_bugs = Kernel.Corpus.blockstop_true_bugs in
  let is_true (f, c) = List.mem (f, c) true_bugs in
  let bugs_found = List.length (List.filter is_true distinct) in
  let false_positives = List.length (List.filter (fun w -> not (is_true w)) distinct) in
  (* Ground truth: both seeded bugs crash the un-instrumented VM. *)
  let triggers = [ "wl_trigger_resize_bug"; "wl_trigger_irq_bug" ] in
  let trap_on_trigger entry =
    let r = Pipeline.booted Pipeline.Base in
    match Pipeline.run_entry r entry 1 with
    | _ -> false
    | exception Vm.Trap.Trap (Vm.Trap.Blocking_in_atomic, _) -> true
  in
  let ground_truth_verified = List.for_all trap_on_trigger triggers in
  {
    unguarded;
    guarded;
    field_based;
    true_bugs;
    bugs_found;
    false_positives;
    checks_inserted = List.length Kernel.Corpus.blockstop_guards;
    ground_truth_verified;
  }

(* ------------------------------------------------------------------ *)
(* A1: ablations of the design choices DESIGN.md calls out.           *)
(* ------------------------------------------------------------------ *)

type a1_row = {
  a_id : string;
  optimized : float; (* rel perf with static discharge *)
  unoptimized : float; (* every check at run time *)
}

(* The static-discharge ablation: without the optimizer, even the
   canonical counted loops pay per-iteration checks — showing how much
   of Table 1's flatness the flow analysis buys. *)
let a1_discharge_ablation ?(rows = [ "bw_mem_cp"; "lat_udp"; "lat_fslayer" ]) () : a1_row list =
  List.map
    (fun id ->
      let row = Kernel.Workloads.find_row id in
      let opt = (table1_row ~mode:Pipeline.Deputy row).rel_perf in
      let unopt = (table1_row ~mode:Pipeline.Deputy_unoptimized row).rel_perf in
      { a_id = id; optimized = opt; unoptimized = unopt })
    rows

type a2 = {
  leak_bad_census : Vm.Machine.free_census; (* leak_on_bad_free = true (sound) *)
  free_anyway_traps : bool; (* freeing anyway lets the VM fault later *)
}

(* The leak-on-bad-free ablation: CCount's soundness-preserving leak
   versus freeing anyway (the dangling access then faults). *)
let a2_leak_ablation () : a2 =
  let src = Kernel.Workloads.sources ~fixed_frees:false () in
  let run ~leak =
    let prog = Kc.Typecheck.check_sources src in
    let _, info = Ccount.Rc_instrument.instrument_program prog in
    let config = { (Ccount.Creport.config ()) with Vm.Machine.leak_on_bad_free = leak } in
    let m = Vm.Machine.create ~config () in
    let t = Vm.Interp.create prog m in
    Vm.Builtins.install t;
    Ccount.Typeinfo.register_with info m;
    t
  in
  let sound = run ~leak:true in
  ignore (Vm.Interp.run sound Kernel.Corpus.boot_entry []);
  let leak_bad_census = Vm.Machine.free_census sound.Vm.Interp.m in
  (* Freeing anyway: the unfixed kernel's dangling task reference can
     fault on a later access. Trigger it deliberately. *)
  let unsound = run ~leak:false in
  let free_anyway_traps =
    match
      ignore (Vm.Interp.run unsound Kernel.Corpus.boot_entry []);
      ignore (Vm.Interp.run unsound "wl_probe_dangling_task" [ 1L ])
    with
    | () -> false
    | exception Vm.Trap.Trap (_, _) -> true
  in
  { leak_bad_census; free_anyway_traps }

(* ------------------------------------------------------------------ *)
(* X1-X3: the paper's §3.1 proposed analyses, implemented.            *)
(* ------------------------------------------------------------------ *)

type x1 = {
  corpus_report : Locksafe.report;
  seeded_report : Locksafe.report; (* with a seeded AB/BA inversion *)
}

(* A buggy "staging driver" with an inverted lock order and an
   irq-vs-process spinlock violation, compiled alongside the corpus to
   show the analysis firing. *)
let locksafe_seed_unit =
  ( "drivers/staging_buggy.kc",
    {kc|
// A staging-quality driver with two locking bugs.
long stage_lock_a;
long stage_lock_b;

int stage_path1(void) {
  spin_lock(&stage_lock_a);
  spin_lock(&stage_lock_b);
  spin_unlock(&stage_lock_b);
  spin_unlock(&stage_lock_a);
  return 0;
}

int stage_path2(void) {
  spin_lock(&stage_lock_b);
  spin_lock(&stage_lock_a);
  spin_unlock(&stage_lock_a);
  spin_unlock(&stage_lock_b);
  return 0;
}

int stage_irq(int irq) {
  spin_lock(&stage_lock_a);
  spin_unlock(&stage_lock_a);
  return 0;
}

int stage_init(void) {
  request_irq(5, stage_irq);
  return 0;
}
|kc}
  )

let x1_locksafe () : x1 =
  let locksafe prog =
    Locksafe.analyze ~handlers:(Engine.Context.irq_handlers (Engine.Context.create prog)) prog
  in
  {
    corpus_report = locksafe (Kernel.Corpus.load ());
    seeded_report =
      locksafe (Kc.Typecheck.check_sources (Kernel.Corpus.sources () @ [ locksafe_seed_unit ]));
  }

type x2 = {
  stack : Stackcheck.result;
  fits_4k : bool; (* every boot-reachable chain within 4 kB *)
  fits_8k : bool;
}

let x2_stackcheck () : x2 =
  let ctxt = Engine.Context.create (Kernel.Workloads.load ()) in
  let stack =
    Stackcheck.analyze
      ~cg:(Engine.Context.callgraph ~mode:Blockstop.Pointsto.Field_based ctxt)
      (Engine.Context.program ctxt)
  in
  {
    stack;
    fits_4k = Stackcheck.fits stack ~entry:Kernel.Corpus.boot_entry ~budget:4096;
    fits_8k = Stackcheck.fits stack ~entry:Kernel.Corpus.boot_entry ~budget:8192;
  }

type x3 = { errors : Errcheck.report; db : Annotdb.t }

let x3_errcheck_and_db () : x3 =
  let prog = Kernel.Corpus.load () in
  { errors = Errcheck.analyze prog; db = Annotdb.populate (Engine.Context.create prog) }

type x4 = {
  corpus_userck : Userck.report; (* clean *)
  seeded_userck : Userck.report; (* with a seeded raw-deref driver *)
}

(* A driver that touches a user pointer directly instead of staging it
   through copy_from_user -- the classic bug the __user discipline
   exists to prevent. *)
let userck_seed_unit =
  ( "drivers/staging_userbug.kc",
    {kc|
// A staging driver that dereferences a user pointer directly.
int stage_ioctl(char * __user arg) {
  char first = *arg;          // BUG: raw deref of user memory
  char kcopy[8];
  char *alias = (char *)arg;  // BUG: launders __user into a kernel ptr
  copy_from_user(kcopy, arg, 8);
  return first + kcopy[0] + alias[1];
}
|kc}
  )

let x4_userck () : x4 =
  let corpus_userck = Userck.analyze (Kernel.Corpus.load ()) in
  let seeded =
    Kc.Typecheck.check_sources (Kernel.Corpus.sources () @ [ userck_seed_unit ])
  in
  { corpus_userck; seeded_userck = Userck.analyze seeded }

(* ------------------------------------------------------------------ *)
(* E5: the driver-subset Deputy census (paper §5 headline).           *)
(* ------------------------------------------------------------------ *)

type e5 = { subset_lines : int; report : Deputy.Dreport.report }

let e5_driver_subset () : e5 =
  let sources =
    List.filter
      (fun (name, _) ->
        List.exists
          (fun prefix -> String.length name >= String.length prefix
                         && String.sub name 0 (String.length prefix) = prefix)
          [ "include/"; "lib/"; "mm/"; "drivers/" ])
      (Kernel.Corpus.sources ())
  in
  let report = deputy_report (Kc.Typecheck.check_sources sources) in
  let lines =
    List.fold_left (fun acc (_, s) -> acc + List.length (String.split_on_char '\n' s)) 0 sources
  in
  { subset_lines = lines; report }
