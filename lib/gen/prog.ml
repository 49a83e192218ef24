(* Structured skeleton + renderer.  Conventions that downstream layers
   rely on:

   - Every generated function name ends in '_' (f3_, op2_, gerr_), so
     oracle attribution by substring match on a diagnostic message is
     unambiguous (no generated name is a prefix of another's mention).
   - Clean blocks are engineered to be *silent* under all five analyses
     and all three instrumented runs: atomic regions contain no calls,
     heap blocks allocate with GFP_ATOMIC and null-guard + retire their
     published reference, lock subsets are acquired in one global order,
     error results are branch-tested, direct calls form a DAG and clamp
     their argument at zero.
   - Fault blocks are self-contained appendices: each one violates
     exactly its own analysis' contract and nothing else. *)

type block =
  | Arith of { iters : int; mul : int }
  | Array_loop of { size : int }
  | Heap of { slot : int }
  | Lock_region of { locks : int list; addend : int }
  | Irq_region of { addend : int }
  | Call of { callee : int }
  | Fptr_call of { table : int; pivot : int }
  | Err_call
  | User_copy
  | F_oob_const of { idx : int }
  | F_oob_dyn of { off : int }
  | F_oob_loop of { bound : int }
  | F_oob_cast of { delta : int }
  | F_oob_symbolic of { base : int }
  | F_dangling
  | F_atomic_block
  | F_lock_inversion of { lo : int; hi : int }
  | F_unchecked_err
  | F_user_deref
  | F_ref_leak
  | F_double_put
  | F_put_on_error_path

type op = { oid : int; omul : int }
type table = { tid : int; ta : int; tb : int }
type func = { fid : int; blocks : block list }

type t = {
  seed : int;
  ops : op list;
  tables : table list;
  funcs : func list;
  faults : (Fault.kind * string) list;
}

let fname fid = Printf.sprintf "f%d_" fid
let opname oid = Printf.sprintf "op%d_" oid

let fault_kind_of_block = function
  | F_oob_const _ | F_oob_dyn _ | F_oob_loop _ | F_oob_cast _ | F_oob_symbolic _ ->
      Some Fault.Oob_write
  | F_dangling -> Some Fault.Dangling_free
  | F_atomic_block -> Some Fault.Atomic_block
  | F_lock_inversion _ -> Some Fault.Lock_inversion
  | F_unchecked_err -> Some Fault.Unchecked_err
  | F_user_deref -> Some Fault.User_deref
  | F_ref_leak -> Some Fault.Ref_leak
  | F_double_put -> Some Fault.Double_put
  | F_put_on_error_path -> Some Fault.Put_on_error_path
  | _ -> None

(* ---- global usage census ------------------------------------------ *)

type uses = {
  mutable u_locks : int list; (* lock indices *)
  mutable u_slots : int list; (* gslot indices *)
  mutable u_dangle : bool;
  mutable u_user : bool;
  mutable u_err : bool;
  mutable u_tables : int list;
  mutable u_heap : bool; (* any allocator use at all *)
  mutable u_pute : bool; (* F_put_on_error_path present: needs gslot_e *)
}

let add_uniq x xs = if List.mem x xs then xs else x :: xs

let census (p : t) : uses =
  let u =
    {
      u_locks = [];
      u_slots = [];
      u_dangle = false;
      u_user = false;
      u_err = false;
      u_tables = [];
      u_heap = false;
      u_pute = false;
    }
  in
  List.iter
    (fun f ->
      List.iter
        (fun b ->
          match b with
          | Arith _ | Array_loop _ | Call _ -> ()
          | Heap { slot } ->
              u.u_heap <- true;
              u.u_slots <- add_uniq slot u.u_slots
          | Lock_region { locks; _ } -> List.iter (fun l -> u.u_locks <- add_uniq l u.u_locks) locks
          | Irq_region _ -> ()
          | Fptr_call { table; _ } -> u.u_tables <- add_uniq table u.u_tables
          | Err_call | F_unchecked_err -> u.u_err <- true
          | User_copy | F_user_deref -> u.u_user <- true
          | F_oob_const _ | F_oob_dyn _ | F_oob_loop _ | F_oob_cast _ -> ()
          | F_oob_symbolic _ -> u.u_heap <- true
          | F_dangling ->
              u.u_heap <- true;
              u.u_dangle <- true
          | F_atomic_block -> ()
          | F_lock_inversion { lo; hi } ->
              u.u_locks <- add_uniq lo u.u_locks;
              u.u_locks <- add_uniq hi u.u_locks
          | F_ref_leak | F_double_put -> u.u_heap <- true
          | F_put_on_error_path ->
              u.u_heap <- true;
              u.u_pute <- true)
        f.blocks)
    p.funcs;
  u

(* ---- rendering ---------------------------------------------------- *)

(* Only the externs the generated code can actually mention; keeping
   the header minimal keeps shrunk repros short and standalone. *)
let header =
  "// generated by ivy fuzz -- self-contained KC unit\n\
   typedef unsigned long size_t;\n\
   void *kzalloc(size_t size, int gfp) __blocking_if_gfp_wait;\n\
   void kfree(void * __opt p);\n\
   void spin_lock(long *l);\n\
   void spin_unlock(long *l);\n\
   void local_irq_disable(void);\n\
   void local_irq_enable(void);\n\
   void msleep(int ms) __blocking;\n\
   int copy_from_user(void *d, void * __user s, size_t n) __blocking;\n"

let bpf = Printf.bprintf

let render_block buf ~fid ~idx (b : block) =
  let id = Printf.sprintf "%d_%d" fid idx in
  match b with
  | Arith { iters; mul } ->
      bpf buf "  { int i%s; long acc%s = n;\n" id id;
      bpf buf "    for (i%s = 0; i%s < %d; i%s++) { acc%s = acc%s * %d + i%s; }\n" id id iters id
        id id mul id;
      bpf buf "    res = res + acc%s; }\n" id
  | Array_loop { size } ->
      bpf buf "  { long ar%s[%d]; int i%s;\n" id size id;
      bpf buf "    for (i%s = 0; i%s < %d; i%s++) { ar%s[i%s] = res + i%s; }\n" id id size id id
        id id;
      bpf buf "    res = res + ar%s[%d]; }\n" id (size - 1)
  | Heap { slot } ->
      bpf buf "  { long * __count(4) __opt hp%s = kzalloc(32, 0);\n" id;
      bpf buf "    if (hp%s != 0) { int i%s;\n" id id;
      bpf buf "      for (i%s = 0; i%s < 4; i%s++) { hp%s[i%s] = res + i%s; }\n" id id id id id id;
      bpf buf "      gslot%d = hp%s; res = res + hp%s[3];\n" slot id id;
      bpf buf "      gslot%d = 0; kfree(hp%s); } }\n" slot id
  | Lock_region { locks; addend } ->
      List.iter (fun l -> bpf buf "  spin_lock(&glk%d);\n" l) locks;
      bpf buf "  res = res + %d;\n" addend;
      List.iter (fun l -> bpf buf "  spin_unlock(&glk%d);\n" l) (List.rev locks)
  | Irq_region { addend } ->
      bpf buf "  local_irq_disable();\n";
      bpf buf "  res = res * 3 + %d;\n" addend;
      bpf buf "  local_irq_enable();\n"
  | Call { callee } ->
      bpf buf "  { int cn%s = n - 1; if (cn%s < 0) { cn%s = 0; }\n" id id id;
      bpf buf "    res = res + %s(cn%s); }\n" (fname callee) id
  | Fptr_call { table; pivot } ->
      bpf buf "  if (n > %d) { res = res + gtbl%d.a(n, 1); }\n" pivot table;
      bpf buf "  else { res = res + gtbl%d.b(n, 2); }\n" table
  | Err_call ->
      bpf buf "  { int er%s = gerr_(n);\n" id;
      bpf buf "    if (er%s < 0) { res = res + 1; } else { res = res + er%s; } }\n" id id
  | User_copy ->
      bpf buf "  { char kb%s[8]; int cr%s = copy_from_user(kb%s, g_up, 8);\n" id id id;
      bpf buf "    res = res + kb%s[0] + cr%s; }\n" id id
  | F_oob_const { idx } -> bpf buf "  { long ob%s[4]; ob%s[%d] = res; }\n" id id idx
  | F_oob_dyn { off } ->
      bpf buf "  { long od%s[4]; int bi%s = n + %d; od%s[bi%s] = res; }\n" id id off id id
  | F_oob_loop { bound } ->
      (* loop-carried index: the bound check on ol[i] needs a widened
         loop invariant to judge, and with bound >= 4 the final
         iteration steps past the array *)
      bpf buf "  { long ol%s[4]; int i%s = 0;\n" id id;
      bpf buf "    while (i%s <= %d) { ol%s[i%s] = res + i%s; i%s = i%s + 1; }\n" id bound id id
        id id id;
      bpf buf "    res = res + ol%s[1]; }\n" id
  | F_oob_cast { delta } ->
      (* mixed-width signed->unsigned cast in the guarding condition:
         sc is negative for every reachable n (n <= 6 < delta), so
         (unsigned short)sc is a large u16 value and the guard is
         dynamically true; only the residual lower-bound check catches
         the negative index.  An optimizer that attributes bounds
         proven about the cast to sc itself (a non-representation-
         preserving strip) would discharge that check, which the
         oracle reports as discharge-unsound. *)
      bpf buf "  { long oc%s[4]; signed char sc%s = n - %d;\n" id id delta;
      bpf buf "    if ((unsigned short)sc%s < 65535) { oc%s[sc%s] = res; } }\n" id id id
  | F_oob_symbolic { base } ->
      (* dependent-count buffer: inside the loop, the residual upper-
         bound check compares i against the symbolic count cn and is
         provable only through the lim = cn - 1 relation -- a zone
         fact; intervals cannot compare two variables.  The closing
         write at index cn is the fault: its check (cn < cn) can
         never hold, so a discharge pass that removes it -- e.g. by
         conflating the loop bound lim with the count itself -- is
         reported as discharge-unsound. *)
      bpf buf "  { int cn%s = n + %d;\n" id base;
      bpf buf "    if (cn%s < 2) { cn%s = 2; } if (cn%s > 6) { cn%s = 6; }\n" id id id id;
      bpf buf "    long * __count(cn%s) __opt sy%s = kzalloc(cn%s * 8, 0);\n" id id id;
      bpf buf "    if (sy%s != 0) { int lim%s = cn%s - 1; int i%s;\n" id id id id;
      bpf buf "      for (i%s = 0; i%s <= lim%s; i%s++) { sy%s[i%s] = res + i%s; }\n" id id id
        id id id id;
      bpf buf "      sy%s[cn%s] = res;\n" id id;
      bpf buf "      res = res + sy%s[0]; kfree(sy%s); } }\n" id id
  | F_dangling ->
      bpf buf "  { long * __count(4) __opt dp%s = kzalloc(32, 0);\n" id;
      bpf buf "    if (dp%s != 0) { dp%s[0] = res; gslot_f = dp%s;\n" id id id;
      bpf buf "      res = res + dp%s[0]; kfree(dp%s); } }\n" id id
  | F_atomic_block ->
      bpf buf "  local_irq_disable();\n";
      bpf buf "  msleep(1);\n";
      bpf buf "  local_irq_enable();\n"
  | F_lock_inversion { lo; hi } ->
      bpf buf "  spin_lock(&glk%d); spin_lock(&glk%d);\n" lo hi;
      bpf buf "  spin_unlock(&glk%d); spin_unlock(&glk%d);\n" hi lo;
      bpf buf "  spin_lock(&glk%d); spin_lock(&glk%d);\n" hi lo;
      bpf buf "  spin_unlock(&glk%d); spin_unlock(&glk%d);\n" lo hi
  | F_unchecked_err -> bpf buf "  gerr_(n);\n"
  | F_user_deref -> bpf buf "  { char * __user uq%s = g_up; res = res + *uq%s; }\n" id id
  | F_ref_leak ->
      (* never freed on any path: statically a ref-leak, dynamically
         invisible (no trap, no bad free) *)
      bpf buf "  { long * __count(4) __opt rl%s = kzalloc(32, 0);\n" id;
      bpf buf "    if (rl%s != 0) { rl%s[0] = res; res = res + rl%s[0]; } }\n" id id id
  | F_double_put ->
      (* second kfree of the same chunk: every instrumented and
         uninstrumented run traps identically (double free) *)
      bpf buf "  { long * __count(4) __opt dd%s = kzalloc(32, 0);\n" id;
      bpf buf "    if (dd%s != 0) { dd%s[0] = res; res = res + dd%s[0];\n" id id id;
      bpf buf "      kfree(dd%s); kfree(dd%s); } }\n" id id
  | F_put_on_error_path ->
      (* freed while still published in gslot_e: the CCount census
         logs a bad free; the late retire never balances it *)
      bpf buf "  { long * __count(4) __opt pe%s = kzalloc(32, 0);\n" id;
      bpf buf "    if (pe%s != 0) { pe%s[0] = res; gslot_e = pe%s;\n" id id id;
      bpf buf "      res = res + pe%s[0]; kfree(pe%s); gslot_e = 0; } }\n" id id

let render (p : t) : string =
  let u = census p in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  bpf buf "// seed %d\n" p.seed;
  (* globals, in a fixed order so rendering is deterministic *)
  List.iter (fun l -> bpf buf "long glk%d;\n" l) (List.sort compare u.u_locks);
  List.iter (fun s -> bpf buf "long * __count(4) __opt gslot%d;\n" s) (List.sort compare u.u_slots);
  if u.u_dangle then bpf buf "long * __count(4) __opt gslot_f;\n";
  if u.u_pute then bpf buf "long * __count(4) __opt gslot_e;\n";
  if u.u_user then begin
    bpf buf "char gu_buf[16];\n";
    bpf buf "char * __user g_up;\n"
  end;
  if u.u_err then begin
    (* int return: errcheck's inference matches bare negative-constant
       returns, which a widening cast to long would hide *)
    bpf buf "int gerr_(int x) {\n";
    bpf buf "  if (x < 0) { return -22; }\n";
    bpf buf "  return x + 1;\n}\n"
  end;
  (* op functions + tables *)
  List.iter
    (fun (o : op) ->
      bpf buf "long %s(int a, int b) {\n" (opname o.oid);
      bpf buf "  long r = a * %d + b;\n  return r;\n}\n" o.omul)
    p.ops;
  if u.u_tables <> [] then
    bpf buf "struct gops { long (*a)(int, int); long (*b)(int, int); };\n";
  List.iter
    (fun (tb : table) ->
      if List.mem tb.tid u.u_tables then
        bpf buf "struct gops gtbl%d = { %s, %s };\n" tb.tid (opname tb.ta) (opname tb.tb))
    p.tables;
  (* regular functions, lowest fid first so direct calls are forward
     declarations-free (callee precedes caller textually) *)
  List.iter
    (fun (f : func) ->
      bpf buf "long %s(int n) {\n  long res = n;\n" (fname f.fid);
      List.iteri (fun idx b -> render_block buf ~fid:f.fid ~idx b) f.blocks;
      bpf buf "  return res;\n}\n")
    (List.sort (fun a b -> compare a.fid b.fid) p.funcs);
  (* main *)
  bpf buf "long main(void) {\n  long acc = 0;\n";
  if u.u_user then bpf buf "  __trusted { g_up = (char * __user)gu_buf; }\n";
  List.iter
    (fun (f : func) -> bpf buf "  acc = acc + %s(%d);\n" (fname f.fid) ((f.fid mod 5) + 2))
    (List.sort (fun a b -> compare a.fid b.fid) p.funcs);
  bpf buf "  return acc;\n}\n";
  Buffer.contents buf

let line_count p =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 (render p)
