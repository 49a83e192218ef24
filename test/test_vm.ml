(* Tests for the VM: memory, allocator, interpreter semantics, cost
   determinism, kernel builtins and trap behaviour. *)

let parse src = Kc.Typecheck.check_sources [ ("t.kc", src) ]

let boot ?config src = Vm.Builtins.boot ?config (parse src)

let run_main ?config ?(fn = "main") ?(args = []) src : int64 =
  let t = boot ?config src in
  Vm.Interp.run t fn args

let check_result name expected src =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check int64) name expected (run_main src))

let check_trap name kind src =
  Alcotest.test_case name `Quick (fun () ->
      match run_main src with
      | v -> Alcotest.failf "%s: expected %s trap, got result %Ld" name (Vm.Trap.kind_to_string kind) v
      | exception Vm.Trap.Trap (k, _) ->
          Alcotest.(check string) name (Vm.Trap.kind_to_string kind) (Vm.Trap.kind_to_string k))

(* Common extern declarations used by test programs. *)
let preamble =
  "void *kmalloc(unsigned long size, int gfp) __blocking_if_gfp_wait;\n\
   void kfree(void * __opt p);\n\
   void *memset(void *p, int c, unsigned long n);\n\
   void *memcpy(void *d, void *s, unsigned long n);\n\
   unsigned long strlen(char * __nullterm s);\n\
   void printk(char * __nullterm fmt, ...);\n\
   void panic(char * __nullterm msg);\n\
   void spin_lock(long *l);\n\
   void spin_unlock(long *l);\n\
   void local_irq_disable(void);\n\
   void local_irq_enable(void);\n\
   void schedule(void) __blocking;\n\
   void assert_not_atomic(void);\n\
   int in_interrupt(void);\n\
   void irq_enter(void);\n\
   void irq_exit(void);\n"

let p src = preamble ^ src

(* ------------------------------------------------------------------ *)
(* Core interpreter semantics                                         *)
(* ------------------------------------------------------------------ *)

let semantics_cases =
  [
    check_result "constant" 42L "int main(void) { return 42; }";
    check_result "arith" 7L "int main(void) { return 1 + 2 * 3; }";
    check_result "division truncates" (-2L) "int main(void) { return -5 / 2; }";
    check_result "mod sign" (-1L) "int main(void) { return -5 % 2; }";
    check_result "unsigned division" 1L
      "int main(void) { unsigned int x = -5; long r = x / 2; return r == 2147483645; }";
    check_result "char wraps" 1L "int main(void) { char c = 255; c = c + 2; return c; }";
    check_result "signed char sign extends" (-1L)
      "int main(void) { signed char c = 255; return c; }";
    check_result "shifts" 20L "int main(void) { int x = 5; return (x << 3) >> 1; }";
    check_result "comparison chain" 1L "int main(void) { return (3 < 5) == (10 > 2); }";
    check_result "short circuit skips" 1L
      "int g;\nint main(void) { int *p = 0; if (p != 0 && *p == 1) { return 0; } return 1; }";
    check_result "ternary" 10L "int main(void) { return 1 ? 10 : 20; }";
    check_result "while loop" 55L
      "int main(void) { int i = 1; int s = 0; while (i <= 10) { s += i; i++; } return s; }";
    check_result "for loop" 45L
      "int main(void) { int s = 0; int i; for (i = 0; i < 10; i++) { s += i; } return s; }";
    check_result "do while runs once" 1L
      "int main(void) { int n = 0; do { n++; } while (0); return n; }";
    check_result "nested break continue" 14L
      "int main(void) { int s = 0; int i; int j; for (i = 0; i < 4; i++) { if (i == 2) { continue; } for (j = 0; j < 10; j++) { if (j == 2) { break; } s += i + 1; } } return s; }";
    check_result "switch fallthrough" 6L
      "int main(void) { int r = 0; switch (2) { case 1: r += 1; case 2: r += 2; case 3: r += 4; break; case 4: r += 8; } return r; }";
    check_result "switch default" 9L
      "int main(void) { switch (77) { case 1: return 1; default: return 9; } }";
    check_result "recursion" 120L
      "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }\n\
       int main(void) { return fact(5); }";
    check_result "mutual recursion" 1L
      "int is_odd(int n);\n\
       int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }\n\
       int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }\n\
       int main(void) { return is_even(10); }";
    check_result "globals" 30L
      "int a = 10;\nint b;\nint main(void) { b = 20; return a + b; }";
    check_result "global array init" 6L
      "int xs[3] = { 1, 2, 3 };\nint main(void) { return xs[0] + xs[1] + xs[2]; }";
    check_result "local array" 10L
      "int main(void) { int a[4]; int i; int s = 0; for (i = 0; i < 4; i++) { a[i] = i + 1; } for (i = 0; i < 4; i++) { s += a[i]; } return s; }";
    check_result "struct on stack" 12L
      "struct pt { int x; int y; };\n\
       int main(void) { struct pt p; p.x = 5; p.y = 7; return p.x + p.y; }";
    check_result "struct assign copies" 5L
      "struct pt { int x; int y; };\n\
       int main(void) { struct pt a; struct pt b; a.x = 5; b = a; a.x = 9; return b.x; }";
    check_result "pointer to local" 99L
      "int main(void) { int x = 1; int *p = &x; *p = 99; return x; }";
    check_result "pointer arithmetic" 3L
      "int main(void) { int a[4]; a[2] = 3; int *p = a; return *(p + 2); }";
    check_result "pointer difference" 3L
      "int main(void) { long a[8]; long *p = a; long *q = p + 3; return q - p; }";
    check_result "function pointer call" 43L
      "int inc(int x) { return x + 1; }\n\
       int main(void) { int (*f)(int) = inc; return f(42); }";
    check_result "dispatch through struct" 21L
      "int h(int x) { return x * 3; }\n\
       struct ops { int (*op)(int); };\n\
       struct ops tbl = { h };\n\
       int main(void) { return tbl.op(7); }";
    check_result "string length via builtin" 5L (p "int main(void) { return strlen(\"hello\"); }");
    check_result "string chars" 104L (p "int main(void) { char *s = \"hi\"; return s[0]; }");
    check_result "sizeof struct" 16L
      "struct s { int a; long b; };\nint main(void) { return sizeof(struct s); }";
    check_result "linked list on heap" 6L
      (p
         "struct node { int v; struct node *next; };\n\
          int main(void) {\n\
          struct node *head = 0; int i;\n\
          for (i = 1; i <= 3; i++) {\n\
          struct node *n = kmalloc(sizeof(struct node), 0);\n\
          n->v = i; n->next = head; head = n;\n\
          }\n\
          int s = 0;\n\
          while (head != 0) { s += head->v; struct node *d = head; head = head->next; kfree(d); }\n\
          return s; }");
    check_result "memset and memcpy" 0L
      (p
         "int main(void) {\n\
          char *a = kmalloc(64, 0); char *b = kmalloc(64, 0); int i;\n\
          memset(a, 7, 64); memcpy(b, a, 64);\n\
          for (i = 0; i < 64; i++) { if (b[i] != 7) { return 1; } }\n\
          return 0; }");
    check_result "unsigned long compare" 1L
      "int main(void) { unsigned long big = -1; return big > 1000; }";
    check_result "continue inside switch body loop" 7L
      "int main(void) { int s = 0; int i; for (i = 0; i < 4; i++) { switch (i) { case 1: continue; case 2: s += 2; break; default: s += 1; } s += 1; } return s; }";
    check_result "break leaves switch not loop" 8L
      "int main(void) { int s = 0; int i; for (i = 0; i < 4; i++) { switch (i) { case 9: break; default: s += 1; break; } s += 1; } return s; }";
    check_result "signed int wraps at 32 bits" 1L
      "int main(void) { int x = 2147483647; x = x + 1; return x == (-2147483647 - 1); }";
    check_result "short truncation" 1L
      "int main(void) { short s = 65537; return s == 1; }";
    check_result "char comparison unsigned" 1L
      "int main(void) { char c = 200; return c > 100; }";
    check_result "shift by wide amounts masks" 2L
      "int main(void) { long one = 1; return one << 65; }";
    check_result "nested struct copy deep" 9L
      "struct in_ { int a; int b; };\nstruct out_ { struct in_ i1; struct in_ i2; };\n\
       int main(void) { struct out_ x; struct out_ y; x.i1.a = 4; x.i2.b = 5; y = x; x.i1.a = 0; x.i2.b = 0; return y.i1.a + y.i2.b; }";
    check_result "global struct init nested" 7L
      "struct pt2 { int x; int y; };\nstruct box { struct pt2 lo; struct pt2 hi; };\n\
       struct box b = { { 1, 2 }, { 3, 4 } };\n\
       int main(void) { return b.lo.x + b.lo.y + b.hi.y; }";
    check_result "function pointer equality" 1L
      "int f1(void) { return 1; }\nint f2(void) { return 2; }\n\
       int main(void) { int (*p)(void) = f1; int (*q)(void) = f1; int (*r)(void) = f2; return (p == q) && (p != r); }";
    check_result "null function pointer test" 5L
      "int main(void) { int (*p)(void) = 0; if (p == 0) { return 5; } return p(); }";
    check_result "address of array element" 30L
      "int main(void) { int a[4]; a[2] = 30; int *p = &a[2]; return *p; }";
    check_result "pointer into struct field" 11L
      "struct holder2 { int pad; int v; };\n\
       int main(void) { struct holder2 h; int *p = &h.v; *p = 11; return h.v; }";
    check_result "do-while with break" 1L
      "int main(void) { int n = 0; do { n++; if (n == 1) { break; } } while (n < 10); return n; }";
    check_result "ternary as lvalue source" 20L
      "int main(void) { int a = 10; int b = 20; int big = a > b ? a : b; return big; }";
    check_result "recursive sum via heap list" 10L
      (p
         "struct n2 { int v; struct n2 * __opt next; };\n\
          int lsum(struct n2 * __opt l) { if (l == 0) { return 0; } struct n2 *ll = l; return ll->v + lsum(ll->next); }\n\
          int main(void) { struct n2 *a = kmalloc(sizeof(struct n2), 0); struct n2 *b = kmalloc(sizeof(struct n2), 0); a->v = 3; a->next = b; b->v = 7; b->next = 0; int s = lsum(a); kfree(b); kfree(a); return s; }");
  ]

(* ------------------------------------------------------------------ *)
(* Traps                                                              *)
(* ------------------------------------------------------------------ *)

let trap_cases =
  [
    check_trap "null deref" Vm.Trap.Wild_access "int main(void) { int *p = 0; return *p; }";
    check_trap "wild pointer" Vm.Trap.Wild_access
      "int main(void) { int *p = (int *)3000000000; return *p; }";
    check_trap "use after free faults on unmapped" Vm.Trap.Wild_access
      (p
         "int main(void) { int *x = kmalloc(4, 0); kfree(x); return *x; }");
    check_trap "double free" Vm.Trap.Double_free
      (p "int main(void) { int *x = kmalloc(4, 0); kfree(x); kfree(x); return 0; }");
    check_trap "division by zero" Vm.Trap.Div_by_zero
      "int main(void) { int z = 0; return 5 / z; }";
    check_trap "panic" Vm.Trap.Panic (p "int main(void) { panic(\"boom\"); return 0; }");
    Alcotest.test_case "infinite loop exhausts fuel" `Quick (fun () ->
        let config = { Vm.Machine.default_config with Vm.Machine.fuel = 100_000 } in
        match run_main ~config "int main(void) { int x = 1; while (x) { } return 0; }" with
        | v -> Alcotest.failf "expected out-of-fuel, got %Ld" v
        | exception Vm.Trap.Trap (Vm.Trap.Out_of_fuel, _) -> ());
    check_trap "deep recursion overflows" Vm.Trap.Stack_overflow_trap
      "int f(int n) { return f(n + 1); }\nint main(void) { return f(0); }";
    check_trap "blocking with irqs off" Vm.Trap.Blocking_in_atomic
      (p "int main(void) { local_irq_disable(); schedule(); return 0; }");
    check_trap "blocking under spinlock" Vm.Trap.Blocking_in_atomic
      (p
         "long lk;\nint main(void) { spin_lock(&lk); schedule(); spin_unlock(&lk); return 0; }");
    check_trap "gfp_wait alloc under spinlock" Vm.Trap.Blocking_in_atomic
      (p "long lk;\nint main(void) { spin_lock(&lk); int *x = kmalloc(8, 1); return 0; }");
    check_trap "assert_not_atomic fires" Vm.Trap.Not_atomic_check
      (p "int main(void) { local_irq_disable(); assert_not_atomic(); return 0; }");
    check_trap "blocking in interrupt context" Vm.Trap.Blocking_in_atomic
      (p "int main(void) { irq_enter(); schedule(); irq_exit(); return 0; }");
  ]

let ok_atomic_cases =
  [
    check_result "gfp_atomic alloc under spinlock is fine" 0L
      (p
         "long lk;\nint main(void) { spin_lock(&lk); int *x = kmalloc(8, 0); spin_unlock(&lk); kfree(x); return 0; }");
    check_result "blocking after unlock is fine" 0L
      (p
         "long lk;\nint main(void) { spin_lock(&lk); spin_unlock(&lk); schedule(); return 0; }");
  ]

(* ------------------------------------------------------------------ *)
(* Memory subsystem                                                   *)
(* ------------------------------------------------------------------ *)

let test_mem_load_store () =
  let m = Vm.Mem.create () in
  Vm.Mem.set_valid m 5000 64 true;
  Vm.Mem.store m ~addr:5000 ~width:8 0x1122334455667788L;
  Alcotest.(check int64) "8-byte roundtrip" 0x1122334455667788L
    (Vm.Mem.load m ~addr:5000 ~width:8 ~signed:false);
  Alcotest.(check int64) "little endian low byte" 0x88L
    (Vm.Mem.load m ~addr:5000 ~width:1 ~signed:false);
  Alcotest.(check int64) "sign extension" (-120L) (Vm.Mem.load m ~addr:5000 ~width:1 ~signed:true);
  Vm.Mem.store m ~addr:5010 ~width:4 (-1L);
  Alcotest.(check int64) "unsigned 4-byte" 0xFFFFFFFFL
    (Vm.Mem.load m ~addr:5010 ~width:4 ~signed:false)

let test_mem_refcounts () =
  let m = Vm.Mem.create () in
  m.Vm.Mem.rc_enabled <- true;
  let target = Int64.of_int (Vm.Mem.heap_base + 32) in
  Vm.Mem.rc_inc m target;
  Vm.Mem.rc_inc m target;
  Alcotest.(check int) "rc is 2" 2 (Vm.Mem.rc_get m (Int64.to_int target));
  Vm.Mem.rc_dec m target;
  Alcotest.(check int) "rc is 1" 1 (Vm.Mem.rc_get m (Int64.to_int target));
  (* Counters wrap at 256, as in the paper's 8-bit design. *)
  for _ = 1 to 255 do
    Vm.Mem.rc_inc m target
  done;
  Alcotest.(check int) "rc wrapped" 0 (Vm.Mem.rc_get m (Int64.to_int target));
  (* Stack addresses are not refcounted. *)
  let stack_target = Int64.of_int (Vm.Mem.stack_base + 64) in
  Vm.Mem.rc_inc m stack_target;
  Alcotest.(check int) "stack not refcounted" 0 (Vm.Mem.rc_get m (Int64.to_int stack_target))

let test_alloc_reuse () =
  let m = Vm.Mem.create () in
  let a = Vm.Alloc.create m in
  let x = Vm.Alloc.alloc a ~size:32 ~zero:false in
  ignore (Vm.Alloc.free a x);
  let y = Vm.Alloc.alloc a ~size:32 ~zero:false in
  Alcotest.(check int) "free list reuses block" x y;
  let z = Vm.Alloc.alloc a ~size:32 ~zero:false in
  Alcotest.(check bool) "fresh block differs" true (z <> y)

let test_alloc_chunk_isolation () =
  let m = Vm.Mem.create () in
  let a = Vm.Alloc.create m in
  let x = Vm.Alloc.alloc a ~size:1 ~zero:false in
  let y = Vm.Alloc.alloc a ~size:1 ~zero:false in
  Alcotest.(check bool) "objects never share a 16-byte chunk" true (abs (y - x) >= 16)

(* A span whose end overflows [max_int] is out of range, not a wrapped
   in-range span: every entry point traps (or answers false) instead
   of escaping with Invalid_argument or touching memory. *)
let test_mem_span_wrap () =
  let m = Vm.Mem.create () in
  Vm.Mem.set_valid m 5000 64 true;
  let expect_trap what msg f =
    match f () with
    | () -> Alcotest.failf "%s: expected a Wild_access trap" what
    | exception Vm.Trap.Trap (k, got) ->
        Alcotest.(check string) (what ^ " kind") "wild-access" (Vm.Trap.kind_to_string k);
        Alcotest.(check string) (what ^ " message") msg got
  in
  expect_trap "set_valid"
    (Printf.sprintf "map 5000+%d out of range" max_int)
    (fun () -> Vm.Mem.set_valid m 5000 max_int false);
  Alcotest.(check bool) "is_valid" false (Vm.Mem.is_valid m 5000 max_int);
  expect_trap "blit_zero"
    (Printf.sprintf "memset of %d bytes at unmapped address 5000" max_int)
    (fun () -> Vm.Mem.blit_zero m 5000 max_int);
  Alcotest.(check bool) "mapping untouched" true (Vm.Mem.is_valid m 5000 64)

(* ------------------------------------------------------------------ *)
(* Boot: isolation and cost                                           *)
(* ------------------------------------------------------------------ *)

let heap_words f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  ( r,
    s1.Gc.minor_words -. s0.Gc.minor_words
    +. (s1.Gc.major_words -. s0.Gc.major_words)
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words) )

(* The memory planes live outside the OCaml heap, so a boot allocates
   only the machine's own records and tables; with heap-backed planes
   it was ~5.9 Mw. This is a word count, not a timing. *)
let test_boot_alloc_fence () =
  let prog = parse (p "long g; int main(void) { g = 1; return 0; }") in
  ignore (Vm.Builtins.boot prog);
  let t, words = heap_words (fun () -> Vm.Builtins.boot prog) in
  Alcotest.(check int64) "boots and runs" 0L (Vm.Interp.run t "main" []);
  if words >= 100_000. then Alcotest.failf "boot allocated %.0f words (fence: < 100000)" words

(* The GC cannot see the size of a plane's mapping, so boots that
   outrun the major GC must force the dead planes out; otherwise this
   loop would hold ~2000 mappings (~94 GB of address space). *)
let test_dead_planes_unmapped () =
  let mappings () =
    let ic = open_in "/proc/self/maps" in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  in
  if Sys.file_exists "/proc/self/maps" then begin
    let before = mappings () in
    for _ = 1 to 2000 do
      Vm.Mem.set_valid (Vm.Mem.create ()) 5000 64 true
    done;
    let grown = mappings () - before in
    if grown > 600 then Alcotest.failf "2000 dead machines left %d new mappings" grown
  end

let isolation_src =
  p
    "long g = 7;\n\
     long set(void) { g = 42; return g; }\n\
     long get(void) { return g; }\n\
     long dirty(void) { long *q = kmalloc(64, 0); int i; for (i = 0; i < 8; i++) { q[i] = -1; } return (long)q; }\n\
     long peek(void) { long *q = kmalloc(64, 0); long s = 0; int i; for (i = 0; i < 8; i++) { s = s | q[i]; } if (s != 0) { return -1; } return (long)q; }\n\
     int main(void) { return 0; }"

let test_boot_isolation () =
  let prog = parse isolation_src in
  let a = Vm.Builtins.boot prog and b = Vm.Builtins.boot prog in
  Alcotest.(check int64) "a writes its global" 42L (Vm.Interp.run a "set" []);
  Alcotest.(check int64) "b keeps its own" 7L (Vm.Interp.run b "get" []);
  let m1 = Vm.Mem.create () and m2 = Vm.Mem.create () in
  Vm.Mem.set_valid m1 5000 8 true;
  Vm.Mem.set_valid m2 5000 8 true;
  Vm.Mem.store m1 ~addr:5000 ~width:8 (-1L);
  Alcotest.(check int64) "planes are private" 0L (Vm.Mem.load m2 ~addr:5000 ~width:8 ~signed:false)

(* kmalloc does not zero by default, so a fresh machine's heap reads
   zeros only because its planes are fresh: [peek] returns its block's
   address if the block reads zero, -1 otherwise. *)
let test_boot_fresh_heap () =
  let prog = parse isolation_src in
  let dirty_at = Vm.Interp.run (Vm.Builtins.boot prog) "dirty" [] in
  (* Unmap the dirty machine, so the next mapping may reuse its pages. *)
  Gc.full_major ();
  let b = Vm.Builtins.boot prog in
  Alcotest.(check int64) "zeros at the dirtied address" dirty_at (Vm.Interp.run b "peek" [])

(* ------------------------------------------------------------------ *)
(* Cost model                                                         *)
(* ------------------------------------------------------------------ *)

let cycles_of ?config src =
  let t = boot ?config src in
  ignore (Vm.Interp.run t "main" []);
  t.Vm.Interp.m.Vm.Machine.cost.Vm.Cost.cycles

let test_cost_determinism () =
  let src = p "int main(void) { int i; int s = 0; for (i = 0; i < 100; i++) { s += i; } return s; }" in
  let c1 = cycles_of src and c2 = cycles_of src in
  Alcotest.(check int) "same cycles on re-run" c1 c2;
  Alcotest.(check bool) "nonzero cost" true (c1 > 0)

let test_cost_scales_with_work () =
  let mk n =
    Printf.sprintf
      "int main(void) { int i; int s = 0; for (i = 0; i < %d; i++) { s += i; } return s; }" n
  in
  let c100 = cycles_of (mk 100) and c1000 = cycles_of (mk 1000) in
  Alcotest.(check bool) "10x work costs roughly 10x" true
    (c1000 > 8 * c100 && c1000 < 12 * c100)

let test_smp_rc_cost_higher () =
  (* The same refcount traffic costs more with the SMP profile. *)
  let src =
    p
      "int *slot;\n\
       int main(void) { int i; slot = kmalloc(8, 0); for (i = 0; i < 1000; i++) { } kfree(slot); return 0; }"
  in
  ignore src;
  let up = Vm.Cost.rc_op_cost Vm.Cost.Up and smp = Vm.Cost.rc_op_cost Vm.Cost.Smp_p4 in
  Alcotest.(check bool) "smp locked rc much more expensive" true (smp >= 3 * up)

let test_console () =
  let t = boot (p "int main(void) { printk(\"x=%d s=%s\", 42, \"ok\"); return 0; }") in
  ignore (Vm.Interp.run t "main" []);
  Alcotest.(check (list string)) "printk output" [ "x=42 s=ok" ]
    (Vm.Machine.console_lines t.Vm.Interp.m)

let () =
  Alcotest.run "vm"
    [
      ("semantics", semantics_cases);
      ("traps", trap_cases);
      ("atomic-ok", ok_atomic_cases);
      ( "memory",
        [
          Alcotest.test_case "load/store" `Quick test_mem_load_store;
          Alcotest.test_case "refcounts" `Quick test_mem_refcounts;
          Alcotest.test_case "alloc reuse" `Quick test_alloc_reuse;
          Alcotest.test_case "chunk isolation" `Quick test_alloc_chunk_isolation;
          Alcotest.test_case "span wrap" `Quick test_mem_span_wrap;
        ] );
      ( "boot",
        [
          Alcotest.test_case "allocation fence" `Quick test_boot_alloc_fence;
          Alcotest.test_case "isolation" `Quick test_boot_isolation;
          Alcotest.test_case "fresh heap" `Quick test_boot_fresh_heap;
          Alcotest.test_case "dead planes unmapped" `Quick test_dead_planes_unmapped;
        ] );
      ( "cost",
        [
          Alcotest.test_case "determinism" `Quick test_cost_determinism;
          Alcotest.test_case "scaling" `Quick test_cost_scales_with_work;
          Alcotest.test_case "smp rc cost" `Quick test_smp_rc_cost_higher;
          Alcotest.test_case "console" `Quick test_console;
        ] );
    ]
