(* Driver hardening: the SafeDrive story (paper §2.1 and §5) on a
   deliberately buggy character driver.

   Run with:  dune exec examples/driver_hardening.exe

   The driver has three classic bugs:
   - an off-by-one overflow of its ring buffer (type safety: Deputy);
   - a use-after-free of its device state (deallocation: CCount);
   - a GFP_KERNEL allocation under its spinlock (blocking: BlockStop).

   Base runs either corrupt memory silently or crash late; each
   analysis turns its bug into a precise, early report. *)

let driver_src ~(fixed : bool) =
  let free_path =
    if fixed then
      {kc|
// Fixed teardown: drop the registration before the free.
int chr_unregister(void) {
  struct chrdev * __opt d = registered_dev;
  registered_dev = 0;
  if (d != 0) {
    kfree(d);
  }
  return 0;
}
|kc}
    else
      {kc|
// Buggy teardown: the registration still points at the freed device.
int chr_unregister(void) {
  struct chrdev * __opt d = registered_dev;
  if (d != 0) {
    kfree(d);
  }
  return 0;
}
|kc}
  in
  {kc|
void *kmalloc(unsigned long size, int gfp) __blocking_if_gfp_wait;
void *kzalloc(unsigned long size, int gfp) __blocking_if_gfp_wait;
void kfree(void * __opt p);
void printk(char * __nullterm fmt, ...);
void spin_lock(long *l);
void spin_unlock(long *l);

enum chr_consts { RING_SIZE = 16 };

struct chrdev {
  int head;
  long lock;
  int ring[16];
  long write_stats; // sits right after the ring: the overflow's victim
};

struct chrdev * __opt registered_dev;

int chr_register(void) {
  registered_dev = kzalloc(sizeof(struct chrdev), 0);
  return 0;
}

// BUG (Deputy): `slot <= 16' writes one past the ring.
int chr_push(struct chrdev *d, int v, int bad) {
  int limit = 16;
  if (bad) { limit = 17; }
  int slot = d->head;
  if (slot >= 0) {
    if (slot < limit) {
      d->ring[slot] = v;
    }
  }
  d->head = slot + 1;
  if (d->head >= 16) { d->head = 0; }
  return 0;
}

// BUG (BlockStop): allocating with GFP_KERNEL under the device lock.
int chr_resize_buggy(struct chrdev *d) {
  spin_lock(&d->lock);
  int *scratch = kmalloc(64, 1);
  spin_unlock(&d->lock);
  kfree(scratch);
  return 0;
}

int chr_use_after_unregister(void) {
  struct chrdev * __opt d = registered_dev;
  if (d == 0) { return -1; }
  return d->head;
}
|kc}
  ^ free_path

let banner title = Printf.printf "\n=== %s ===\n" title

let () =
  (* ---------- Deputy: overflow becomes a clean trap ---------- *)
  banner "Deputy: ring-buffer off-by-one";
  let dep = Kc.Typecheck.check_sources [ ("chr.kc", driver_src ~fixed:true) ] in
  let report = Deputy.Dreport.deputize dep in
  Format.printf "%a@." Deputy.Dreport.pp report;
  (* Drive 17 pushes (the last one bad) through a small KC harness. *)
  let harness =
    driver_src ~fixed:true
    ^ {kc|
int harness(int bad) {
  chr_register();
  struct chrdev * __opt d = registered_dev;
  if (d == 0) { return -1; }
  struct chrdev * __opt dd = d;
  int i;
  for (i = 0; i < 16; i++) {
    chr_push(dd, i, 0);
  }
  // The 17th push with `bad' set writes ring[16].
  d->head = 16;
  chr_push(dd, 99, bad);
  return d->head;
}
|kc}
  in
  let base_h = Kc.Typecheck.check_sources [ ("chr.kc", harness) ] in
  let tb = Vm.Builtins.boot base_h in
  Printf.printf "base: harness(1) = %Ld  <- overflow landed silently\n"
    (Vm.Interp.run tb "harness" [ 1L ]);
  let dep_h = Kc.Typecheck.check_sources [ ("chr.kc", harness) ] in
  ignore (Deputy.Dreport.deputize dep_h);
  let tdh = Vm.Builtins.boot dep_h in
  (match Vm.Interp.run tdh "harness" [ 1L ] with
  | v -> Printf.printf "deputy: harness(1) = %Ld (unexpected)\n" v
  | exception Vm.Trap.Trap (Vm.Trap.Check_failed, msg) ->
      Printf.printf "deputy: trapped the overflow: %s\n" msg);

  (* ---------- CCount: the dangling registration ---------- *)
  banner "CCount: use after unregister";
  let uaf_harness fixed =
    driver_src ~fixed
    ^ {kc|
int harness(void) {
  chr_register();
  chr_unregister();
  return chr_use_after_unregister();
}
|kc}
  in
  let prog = Kc.Typecheck.check_sources [ ("chr.kc", uaf_harness false) ] in
  let t, _ = Ccount.Creport.ccount_boot prog in
  let v = Vm.Interp.run t "harness" [] in
  let census = Vm.Machine.free_census t.Vm.Interp.m in
  Printf.printf "buggy unregister: returned %Ld; CCount found %d bad free(s) and leaked the \
                 object (sound)\n" v census.Vm.Machine.bad;
  let prog_f = Kc.Typecheck.check_sources [ ("chr.kc", uaf_harness true) ] in
  let tf, _ = Ccount.Creport.ccount_boot prog_f in
  ignore (Vm.Interp.run tf "harness" []);
  let census_f = Vm.Machine.free_census tf.Vm.Interp.m in
  Printf.printf "fixed unregister: %d/%d frees good\n" census_f.Vm.Machine.good
    census_f.Vm.Machine.total_frees;

  (* ---------- BlockStop: allocation under the lock ---------- *)
  banner "BlockStop: GFP_KERNEL under a spinlock";
  let prog_b = Kc.Typecheck.check_sources [ ("chr.kc", driver_src ~fixed:true) ] in
  let r = Blockstop.Breport.analyze (Engine.Context.callgraph (Engine.Context.create prog_b)) in
  List.iter
    (fun (f, c) -> Printf.printf "static warning: %s may block inside %s\n" c f)
    (Blockstop.Breport.distinct_warnings r);
  (* Ground truth. *)
  let prog_gt =
    Kc.Typecheck.check_sources
      [ ("chr.kc", driver_src ~fixed:true ^ "int go(void) { chr_register(); struct chrdev * __opt d = registered_dev; if (d == 0) { return -1; } struct chrdev * __opt dd = d; return chr_resize_buggy(dd); }") ]
  in
  let tg = Vm.Builtins.boot prog_gt in
  (match Vm.Interp.run tg "go" [] with
  | v -> Printf.printf "go() = %Ld (unexpected)\n" v
  | exception Vm.Trap.Trap (Vm.Trap.Blocking_in_atomic, msg) ->
      Printf.printf "VM ground truth: %s\n" msg)
