(* The pre-compiled execution engine.

   A multi-phase compiler from IR functions to a flat, pre-resolved
   executable form:

   - phase A (lowering): structured control flow (loops, switch,
     delayed scopes) lowers to an array of mid-level basic blocks —
     lists of mid-level items (IR instructions plus pseudo-ops for
     fuel burns, scope enter/exit and return-value sets) with
     structured terminators that still carry their IR condition;
   - phase B (peephole): unconditional-jump chains collapse,
     single-predecessor blocks merge, compare terminators copy onto
     back edges, and unreachable blocks are dropped. Phase B moves
     control flow only; it rewrites no instruction or expression;
   - phase C (codegen): every instruction that has a micro-op form
     ([uop]: sets, bounds and null checks) is described once as a flat
     datum. A block whose items all describe and whose terminator is a
     goto, return or classified compare compiles to ONE closure (a
     self-targeting compare becomes an in-closure spin loop); any
     other block runs each described instruction as [burn; run_uop]
     and everything else as its generic closure. Compare+branch fuses
     into the terminator and ALU/address expressions read classified
     operands.

   The contract is strict observational equivalence with {!Treewalk}:
   identical traps (kind and message), identical results, identical
   cycle counts and fuel burns, identical rodata interning order and
   stack addresses. Every cost-model charge and fuel burn below is
   placed exactly where the tree-walker places it; the differential
   suite (test/test_vm_compile.ml) holds the fused code to the
   tree-walker. Register slots are charge-free in the cost model,
   which is what makes operand inlining observationally neutral.

   Compiled programs are cached per [I.program] (physical identity,
   weak — dead fuzz-case programs are collectable) and per function
   revalidated against [fbody] identity, so instrumentation passes
   that rewrite bodies transparently invalidate stale code. Nothing
   the compiler emits depends on a collected profile. *)

module I = Kc.Ir

(* The register file is a flat int64 bigarray rather than an
   [int64 array]: OCaml arrays hold int64s boxed, so every register
   write would allocate; bigarray reads and writes move the raw word.
   Register state is identical either way — this is representation
   only. *)
type regfile = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let[@inline] rget (r : regfile) i : int64 = Bigarray.Array1.unsafe_get r i
let[@inline] rset (r : regfile) i (v : int64) = Bigarray.Array1.unsafe_set r i v

let regfile_make n : regfile =
  let r = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (max 1 n) in
  Bigarray.Array1.fill r 0L;
  r

(* Per-activation execution environment. [m]/[cost]/[mem] are copies
   of the state's machine fields, hoisted out of the per-op field
   chains of the interpreter. *)
type env = {
  st : Vmstate.t;
  m : Machine.t;
  cost : Cost.t;
  mem : Mem.t;
  regs : regfile;
  base : int; (* stack frame base address *)
  mutable retv : int64;
}

type bblock = {
  bid : int;
  mutable instrs : (env -> unit) array;
  mutable term : env -> int; (* next block id; -1 = return *)
}

type cfun = {
  cf_body : I.block; (* identity stamp: recompile when fbody is swapped *)
  cf_nregs : int;
  cf_frame_bytes : int;
  cf_blocks : bblock array;
  cf_binders : (env -> int64 -> unit) array; (* formal binding, in order *)
  cf_ret_norm : int64 -> int64;
}

type t = {
  prog : I.program;
  by_fid : (int, int) Hashtbl.t; (* fid -> index; immutable after create *)
  cfuns : cfun option array; (* lazily compiled, revalidated by body identity *)
  globals : (int, int) Hashtbl.t; (* baked global layout; immutable *)
  mutable compiles : int; (* function compilations (observability) *)
}

(* ------------------------------------------------------------------ *)
(* Compile-time site counters.                                        *)
(* ------------------------------------------------------------------ *)

(* The stats table counts compile-time sites: blocks fused whole,
   instructions run as standalone micro-ops, specialized expressions,
   and peephole rewrites. *)

let opt_counters = Vmcounters.create ()
let opt_stats () = Vmcounters.table opt_counters

let render_opt_stats () =
  Vmcounters.render ~title:"vm optimizer (fusion + peephole sites):" opt_counters

let reset_opt_stats () = Vmcounters.reset opt_counters
let ostat name = Vmcounters.bump opt_counters name
let ostat_n name n = if n > 0 then Vmcounters.add opt_counters name n

(* Inlined machine-state updates for the specialized closures. Same
   state transitions as Machine.burn_fuel and the Cost hooks — the
   cost constants come from Cost so the model stays in one place —
   but with the cold trap arm out of line, the hot path inlines into
   each specialized closure instead of paying a cross-module call per
   charge. The generic closures (shapes with no specialized form) keep
   calling the Machine and Cost entry points. *)
let fuel_exhausted () = Trap.trap Trap.Out_of_fuel "interpreter fuel exhausted"

let[@inline] burn (env : env) =
  let m = env.m in
  let f = m.Machine.fuel_left - 1 in
  m.Machine.fuel_left <- f;
  if f <= 0 then fuel_exhausted ()

let[@inline] c_alu (env : env) =
  let c = env.cost in
  c.Cost.cycles <- c.Cost.cycles + Cost.alu

let[@inline] c_branch (env : env) =
  let c = env.cost in
  c.Cost.cycles <- c.Cost.cycles + Cost.branch

let[@inline] c_load (env : env) =
  let c = env.cost in
  c.Cost.loads <- c.Cost.loads + 1;
  c.Cost.cycles <- c.Cost.cycles + Cost.load_cost

let[@inline] c_store (env : env) =
  let c = env.cost in
  c.Cost.stores <- c.Cost.stores + 1;
  c.Cost.cycles <- c.Cost.cycles + Cost.store_cost

let[@inline] c_check (env : env) =
  let c = env.cost in
  c.Cost.checks_executed <- c.Cost.checks_executed + 1;
  c.Cost.cycles <- c.Cost.cycles + Cost.check_cost

(* ------------------------------------------------------------------ *)
(* Compile-time helpers.                                              *)
(* ------------------------------------------------------------------ *)

(* Width/sign normalization as a closure; [None] = identity. *)
let normf_opt (ty : I.ty) : (int64 -> int64) option =
  match ty with
  | I.Tint (k, s) ->
      let w = Kc.Layout.int_size k in
      if w = 8 then None
      else
        let shift = 64 - (8 * w) in
        if s = Kc.Ast.Signed then
          Some (fun v -> Int64.shift_right (Int64.shift_left v shift) shift)
        else Some (fun v -> Int64.shift_right_logical (Int64.shift_left v shift) shift)
  | _ -> None

let identity (v : int64) = v
let normf ty = match normf_opt ty with Some f -> f | None -> identity

(* The same normalization as a first-class shape, cheap enough to
   inline into specialized closures (no closure call per write). *)
type nspec = Nid | Nsx of int | Nzx of int

let nspec_of (ty : I.ty) : nspec =
  match ty with
  | I.Tint (k, s) ->
      let w = Kc.Layout.int_size k in
      if w = 8 then Nid
      else
        let sh = 64 - (8 * w) in
        if s = Kc.Ast.Signed then Nsx sh else Nzx sh
  | _ -> Nid

let[@inline] napply (ns : nspec) (v : int64) : int64 =
  match ns with
  | Nid -> v
  | Nsx sh -> Int64.shift_right (Int64.shift_left v sh) sh
  | Nzx sh -> Int64.shift_right_logical (Int64.shift_left v sh) sh

type cslot = Sreg of int | Sstk of int (* frame offset *)

(* Addresses fold constants: a global base plus field offsets compiles
   to a single immediate, a stack slot to a frame-base displacement
   ([Abase]), and scaled pointer indexing to a register-pair or
   register-plus-displacement form ([Ari]/[Arc]) — all kept symbolic
   so fused closures can resolve them inline. The [Ari]/[Arc] forms
   carry the indexing ALU charge with them; resolving one charges
   exactly the one ALU cycle the tree-walker charges for the add. *)
type caddr =
  | Aconst of int
  | Abase of int (* env.base + offset *)
  | Ari of int * int * int (* regs.(p) + regs.(i) * scale, one ALU *)
  | Arc of int * int (* regs.(p) + displacement, one ALU *)
  | Adyn of (env -> int)

(* [Ari]/[Arc] resolve in native-int arithmetic: addresses are native
   ints anyway, and truncation to 63 bits commutes with add and
   multiply, so the result matches the Int64 computation the generic
   closures perform — without boxing an Int64 per step. *)
let force = function
  | Aconst n -> fun _ -> n
  | Abase o -> fun env -> env.base + o
  | Ari (p, i, k) ->
      fun env ->
        let a = Int64.to_int (rget env.regs p) in
        let b = Int64.to_int (rget env.regs i) in
        c_alu env;
        a + (b * k)
  | Arc (p, d) ->
      fun env ->
        let a = Int64.to_int (rget env.regs p) in
        c_alu env;
        a + d
  | Adyn f -> f

let add_const a k =
  if k = 0 then a
  else
    match a with
    | Aconst n -> Aconst (n + k)
    | Abase o -> Abase (o + k)
    | Arc (p, d) -> Arc (p, d + k)
    | Ari _ as a ->
        let f = force a in
        Adyn (fun env -> f env + k)
    | Adyn f -> Adyn (fun env -> f env + k)

(* A resolved lvalue: a register slot (with its type, for write
   normalization) or an address computation with the value type. *)
type cplace = CPreg of int * I.ty | CPmem of caddr * I.ty

(* A classified operand: constant, register slot, or a compiled
   closure. Constants and register reads are charge-free in the cost
   model, so fetching them inline is observationally neutral. *)
type operand = Oc of int64 | Oreg of int | Odyn of (env -> int64)

type fctx = { cc : t; slots : (int, cslot) Hashtbl.t }

(* Comparison kinds, evaluated by direct call on already-boxed values
   (no allocation). Semantics mirror Treewalk.eval_binop exactly. *)
type cmpk = Clts | Cltu | Cgts | Cgtu | Cles | Cleu | Cges | Cgeu | Ceq | Cne

let[@inline] cmp_eval (k : cmpk) (x : int64) (y : int64) : bool =
  match k with
  | Clts -> x < y
  | Cltu -> Int64.unsigned_compare x y < 0
  | Cgts -> x > y
  | Cgtu -> Int64.unsigned_compare x y > 0
  | Cles -> x <= y
  | Cleu -> Int64.unsigned_compare x y <= 0
  | Cges -> x >= y
  | Cgeu -> Int64.unsigned_compare x y >= 0
  | Ceq -> x = y
  | Cne -> x <> y

let cmpk_of (op : Kc.Ast.binop) ~signed : cmpk option =
  match op with
  | Kc.Ast.Lt -> Some (if signed then Clts else Cltu)
  | Kc.Ast.Gt -> Some (if signed then Cgts else Cgtu)
  | Kc.Ast.Le -> Some (if signed then Cles else Cleu)
  | Kc.Ast.Ge -> Some (if signed then Cges else Cgeu)
  | Kc.Ast.Eq -> Some Ceq
  | Kc.Ast.Ne -> Some Cne
  | _ -> None

(* Non-pointer ALU ops as tags, mirroring Treewalk.eval_binop:
   same trap messages, same shift masking, same signedness choice. *)
type aluk =
  | Kadd
  | Ksub
  | Kmul
  | Kdivs
  | Kdivu
  | Kmods
  | Kmodu
  | Kshl
  | Kshrs
  | Kshru
  | Kand
  | Kor
  | Kxor
  | Kcmp of cmpk
  | Kland
  | Klor

let[@inline] alu_eval (k : aluk) (x : int64) (y : int64) : int64 =
  let open Int64 in
  match k with
  | Kadd -> add x y
  | Ksub -> sub x y
  | Kmul -> mul x y
  | Kdivs ->
      if y = 0L then Trap.trap Trap.Div_by_zero "division by zero";
      div x y
  | Kdivu ->
      if y = 0L then Trap.trap Trap.Div_by_zero "division by zero";
      unsigned_div x y
  | Kmods ->
      if y = 0L then Trap.trap Trap.Div_by_zero "mod by zero";
      rem x y
  | Kmodu ->
      if y = 0L then Trap.trap Trap.Div_by_zero "mod by zero";
      unsigned_rem x y
  | Kshl -> shift_left x (to_int (logand y 63L))
  | Kshrs -> shift_right x (to_int (logand y 63L))
  | Kshru -> shift_right_logical x (to_int (logand y 63L))
  | Kand -> logand x y
  | Kor -> logor x y
  | Kxor -> logxor x y
  | Kcmp c -> if cmp_eval c x y then 1L else 0L
  | Kland -> if x <> 0L && y <> 0L then 1L else 0L
  | Klor -> if x <> 0L || y <> 0L then 1L else 0L

let aluk_of (op : Kc.Ast.binop) ~signed : aluk =
  match op with
  | Kc.Ast.Add -> Kadd
  | Kc.Ast.Sub -> Ksub
  | Kc.Ast.Mul -> Kmul
  | Kc.Ast.Div -> if signed then Kdivs else Kdivu
  | Kc.Ast.Mod -> if signed then Kmods else Kmodu
  | Kc.Ast.Shl -> Kshl
  | Kc.Ast.Shr -> if signed then Kshrs else Kshru
  | Kc.Ast.Bitand -> Kand
  | Kc.Ast.Bitor -> Kor
  | Kc.Ast.Bitxor -> Kxor
  | Kc.Ast.Lt -> Kcmp (if signed then Clts else Cltu)
  | Kc.Ast.Gt -> Kcmp (if signed then Cgts else Cgtu)
  | Kc.Ast.Le -> Kcmp (if signed then Cles else Cleu)
  | Kc.Ast.Ge -> Kcmp (if signed then Cges else Cgeu)
  | Kc.Ast.Eq -> Kcmp Ceq
  | Kc.Ast.Ne -> Kcmp Cne
  | Kc.Ast.Logand -> Kland
  | Kc.Ast.Logor -> Klor

let alu_can_trap = function Kdivs | Kdivu | Kmods | Kmodu -> true | _ -> false
let alu_is_bool = function Kcmp _ | Kland | Klor -> true | _ -> false

let arr_mem (v : int64) (a : int64 array) =
  let n = Array.length a in
  let rec go i = i < n && (Array.unsafe_get a i = v || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Phase A: the mid-level representation and structured lowering.     *)
(* ------------------------------------------------------------------ *)

(* Mid-level items keep the IR instruction (so codegen can still
   pattern-match its expressions) plus the pseudo-ops the lowering
   introduces. *)
type mi =
  | Mi of I.instr
  | Mfuel
  | Mscope_enter
  | Mscope_exit of string
  | Mretval of I.exp option

(* Terminators stay structured through phase B so compares can be
   copied onto back edges and fused; block targets are ids, -1 =
   return. *)
type mterm =
  | Munset
  | Mgoto of int
  | Mret
  | Mif of I.exp * int * int
  | Mwhile of I.exp * int * int (* cond nonzero -> body, else exit *)
  | Mdowhile of I.exp * int * int (* cond nonzero -> head, else exit *)
  | Mswitch of I.exp * (int64 array * int) array * int

type mblock = { mutable mid : int; mutable mis : mi list; mutable mt : mterm }

type lowerer = {
  mutable lblocks : mblock list; (* reversed *)
  mutable lnb : int;
  mutable lcur : mblock;
  mutable lacc : mi list; (* reversed items of [lcur] *)
}

let new_mb lo =
  let b = { mid = lo.lnb; mis = []; mt = Munset } in
  lo.lnb <- lo.lnb + 1;
  lo.lblocks <- b :: lo.lblocks;
  b

let emitm lo i = lo.lacc <- i :: lo.lacc

let sealm lo t =
  lo.lcur.mis <- List.rev lo.lacc;
  lo.lcur.mt <- t;
  lo.lacc <- []

let startm lo b =
  lo.lcur <- b;
  lo.lacc <- []

(* Lexical lowering context: break/continue targets carry the
   delayed-scope depth at the construct's entry so jumps crossing
   scope boundaries emit the pending exits; [scopes] holds the exit
   locations, innermost first — the order the tree-walker unwinds. *)
type lenv = {
  brk : (int * int) option; (* (target bid, scope depth at entry) *)
  cont : (int * int) option;
  scopes : string list;
}

let emit_mexits lo (lenv : lenv) (upto_depth : int) =
  let n = List.length lenv.scopes - upto_depth in
  let rec go i = function
    | w :: rest when i < n ->
        emitm lo (Mscope_exit w);
        go (i + 1) rest
    | _ -> ()
  in
  go 0 lenv.scopes

let rec lower_block lo (lenv : lenv) (b : I.block) : unit = List.iter (lower_stmt lo lenv) b

and lower_stmt lo (lenv : lenv) (s : I.stmt) : unit =
  match s.I.sk with
  | I.Sinstr i -> emitm lo (Mi i)
  | I.Sif (c, b1, b2) ->
      let bt = new_mb lo in
      let bf = new_mb lo in
      let join = new_mb lo in
      sealm lo (Mif (c, bt.mid, bf.mid));
      startm lo bt;
      lower_block lo lenv b1;
      sealm lo (Mgoto join.mid);
      startm lo bf;
      lower_block lo lenv b2;
      sealm lo (Mgoto join.mid);
      startm lo join
  | I.Swhile (c, body, step) ->
      let head = new_mb lo in
      let bbody = new_mb lo in
      let bstep = new_mb lo in
      let bexit = new_mb lo in
      sealm lo (Mgoto head.mid);
      start_while lo lenv c head bbody bstep bexit body step
  | I.Sdowhile (body, c) ->
      let head = new_mb lo in
      let bcond = new_mb lo in
      let bexit = new_mb lo in
      sealm lo (Mgoto head.mid);
      startm lo head;
      emitm lo Mfuel;
      let d = List.length lenv.scopes in
      lower_block lo { lenv with brk = Some (bexit.mid, d); cont = Some (bcond.mid, d) } body;
      sealm lo (Mgoto bcond.mid);
      startm lo bcond;
      sealm lo (Mdowhile (c, head.mid, bexit.mid));
      startm lo bexit
  | I.Sswitch (e, cases) ->
      let join = new_mb lo in
      let cblocks = List.map (fun _ -> new_mb lo) cases in
      let tbl =
        Array.of_list
          (List.map2
             (fun (c : I.case) (b : mblock) -> (Array.of_list c.I.cvals, b.mid))
             cases cblocks)
      in
      let default =
        let rec find_default cs bs =
          match (cs, bs) with
          | (c : I.case) :: cs', (b : mblock) :: bs' ->
              if c.I.cdefault then b.mid else find_default cs' bs'
          | _ -> join.mid
        in
        find_default cases cblocks
      in
      sealm lo (Mswitch (e, tbl, default));
      let d = List.length lenv.scopes in
      let rec lower_cases cs bs =
        match (cs, bs) with
        | (c : I.case) :: cs', (b : mblock) :: bs' ->
            startm lo b;
            lower_block lo { lenv with brk = Some (join.mid, d) } c.I.cbody;
            (* C fallthrough into the next case's body. *)
            let next = match bs' with nb :: _ -> nb | [] -> join in
            sealm lo (Mgoto next.mid);
            lower_cases cs' bs'
        | _ -> ()
      in
      lower_cases cases cblocks;
      startm lo join
  | I.Sbreak -> (
      match lenv.brk with
      | Some (target, d) ->
          emit_mexits lo lenv d;
          sealm lo (Mgoto target);
          startm lo (new_mb lo) (* dead code after the jump *)
      | None ->
          (* A top-level break leaves the function with result 0, as
             the signal propagating out of exec_block does. *)
          emit_mexits lo lenv 0;
          emitm lo (Mretval None);
          sealm lo Mret;
          startm lo (new_mb lo))
  | I.Scontinue -> (
      match lenv.cont with
      | Some (target, d) ->
          emit_mexits lo lenv d;
          sealm lo (Mgoto target);
          startm lo (new_mb lo)
      | None ->
          emit_mexits lo lenv 0;
          emitm lo (Mretval None);
          sealm lo Mret;
          startm lo (new_mb lo))
  | I.Sreturn eo ->
      (* Evaluate the result first, then unwind delayed scopes — the
         order the tree-walker's `Return signal propagation gives. *)
      emitm lo (Mretval eo);
      emit_mexits lo lenv 0;
      sealm lo Mret;
      startm lo (new_mb lo)
  | I.Sblock b -> lower_block lo lenv b
  | I.Sdelayed b ->
      let where = Kc.Loc.to_string s.I.sloc in
      emitm lo Mscope_enter;
      lower_block lo { lenv with scopes = where :: lenv.scopes } b;
      emitm lo (Mscope_exit where)
  | I.Strusted b -> lower_block lo lenv b

and start_while lo lenv c head bbody bstep bexit body step =
  startm lo head;
  (* One loop iteration: fuel burn, branch charge, condition — in the
     tree-walker's order; the head block itself stays empty. *)
  sealm lo (Mwhile (c, bbody.mid, bexit.mid));
  let d = List.length lenv.scopes in
  startm lo bbody;
  lower_block lo { lenv with brk = Some (bexit.mid, d); cont = Some (bstep.mid, d) } body;
  sealm lo (Mgoto bstep.mid);
  startm lo bstep;
  lower_block lo { lenv with brk = Some (bexit.mid, d); cont = Some (head.mid, d) } step;
  sealm lo (Mgoto head.mid);
  startm lo bexit

(* ------------------------------------------------------------------ *)
(* Phase B: peephole passes over the mid-level CFG.                   *)
(* ------------------------------------------------------------------ *)

let term_map f (t : mterm) : mterm =
  match t with
  | Munset | Mret -> t
  | Mgoto x -> Mgoto (f x)
  | Mif (c, a, b) -> Mif (c, f a, f b)
  | Mwhile (c, a, b) -> Mwhile (c, f a, f b)
  | Mdowhile (c, a, b) -> Mdowhile (c, f a, f b)
  | Mswitch (c, tbl, d) -> Mswitch (c, Array.map (fun (vs, b) -> (vs, f b)) tbl, f d)

let term_targets (t : mterm) : int list =
  match t with
  | Munset | Mret -> []
  | Mgoto x -> [ x ]
  | Mif (_, a, b) | Mwhile (_, a, b) | Mdowhile (_, a, b) -> [ a; b ]
  | Mswitch (_, tbl, d) -> d :: Array.fold_left (fun acc (_, b) -> b :: acc) [] tbl

(* Collapse chains of empty unconditional blocks: a jump to an empty
   [Mgoto] block retargets to where it goes; a jump to an empty [Mret]
   block returns directly. Loop heads carry structured terminators and
   are never threaded through; the hop cap bounds pathological chains. *)
let peep_thread (bs : mblock array) : int =
  let changed = ref 0 in
  let rec resolve hops i =
    if i < 0 || hops > 64 then i
    else
      let b = Array.unsafe_get bs i in
      match (b.mis, b.mt) with
      | [], Mgoto t when t <> i -> resolve (hops + 1) t
      | [], Mret -> -1
      | _ -> i
  in
  Array.iter
    (fun b ->
      b.mt <-
        term_map
          (fun x ->
            let r = resolve 0 x in
            if r <> x then incr changed;
            r)
          b.mt)
    bs;
  !changed

(* Absorb single-predecessor blocks into their unique unconditional
   predecessor, turning Sif joins and loop step blocks into straight
   lines the later passes see whole. *)
let peep_merge (bs : mblock array) : int =
  let n = Array.length bs in
  let merged = ref 0 in
  let again = ref true in
  while !again do
    again := false;
    let preds = Array.make (max n 1) 0 in
    if n > 0 then preds.(0) <- 1 (* virtual entry edge *);
    Array.iter
      (fun b -> List.iter (fun t -> if t >= 0 then preds.(t) <- preds.(t) + 1) (term_targets b.mt))
      bs;
    Array.iteri
      (fun ai a ->
        match a.mt with
        | Mgoto b when b >= 0 && b <> ai && preds.(b) = 1 ->
            let bb = bs.(b) in
            a.mis <- a.mis @ bb.mis;
            a.mt <- bb.mt;
            bb.mis <- [];
            bb.mt <- Mret;
            incr merged;
            again := true
        | _ -> ())
      bs;
  done;
  !merged

(* Copy an empty successor's structured terminator over an
   unconditional jump. [Mgoto] is charge-free, so running the target's
   compare-and-branch directly is observationally identical — and it
   saves a closure call plus a block transition on the canonical
   while-loop back edge, which the E2 workloads take millions of
   times. The emptied loop head often loses its last predecessor and
   is swept by [peep_compact]. *)
let peep_termcopy (bs : mblock array) : int =
  let changed = ref 0 in
  Array.iteri
    (fun i b ->
      match b.mt with
      | Mgoto t when t >= 0 && t <> i -> (
          let tb = Array.unsafe_get bs t in
          match (tb.mis, tb.mt) with
          | [], (Mwhile _ | Mdowhile _ | Mif _) ->
              b.mt <- tb.mt;
              incr changed
          | _ -> ())
      | _ -> ())
    bs;
  !changed

(* Drop unreachable blocks and renumber densely, preserving the
   original relative order. *)
let peep_compact (bs : mblock array) : mblock array =
  let n = Array.length bs in
  let reach = Array.make (max n 1) false in
  let rec dfs i =
    if i >= 0 && not reach.(i) then begin
      reach.(i) <- true;
      List.iter dfs (term_targets bs.(i).mt)
    end
  in
  if n > 0 then dfs 0;
  let remap = Array.make (max n 1) (-1) in
  let kept = ref [] in
  let nk = ref 0 in
  Array.iteri
    (fun i b ->
      if reach.(i) then begin
        remap.(i) <- !nk;
        incr nk;
        kept := b :: !kept
      end)
    bs;
  let arr = Array.of_list (List.rev !kept) in
  Array.iteri
    (fun i b ->
      b.mid <- i;
      b.mt <- term_map (fun t -> if t < 0 then t else remap.(t)) b.mt)
    arr;
  arr

let peephole (bs : mblock array) : mblock array =
  let th1 = peep_thread bs in
  let mg = peep_merge bs in
  let th2 = peep_thread bs in
  let tc = peep_termcopy bs in
  let bs = peep_compact bs in
  ostat_n "peep:jump-thread" (th1 + th2);
  ostat_n "peep:block-merge" mg;
  ostat_n "peep:term-copy" tc;
  bs

(* ------------------------------------------------------------------ *)
(* Expressions.                                                       *)
(* ------------------------------------------------------------------ *)

let rec cexp ctx (e : I.exp) : env -> int64 =
  let prog = ctx.cc.prog in
  match e.I.e with
  | I.Econst n -> fun _ -> n
  | I.Estr s -> fun env -> Int64.of_int (Vmstate.intern_string env.st s)
  | I.Efun name -> (
      match I.find_fun prog name with
      | Some fd ->
          let v = Vmstate.fptr_encode fd.I.fid in
          fun _ -> v
      | None -> fun _ -> Trap.trap Trap.Unknown_function "reference to unknown function %s" name)
  | I.Elval lv -> cread ctx lv
  | I.Eunop (op, e1) -> (
      let c1 = cexp ctx e1 in
      match op with
      | Kc.Ast.Neg ->
          let nf = normf e.I.ety in
          fun env ->
            let v = c1 env in
            Cost.op_alu env.cost;
            nf (Int64.neg v)
      | Kc.Ast.Bitnot ->
          let nf = normf e.I.ety in
          fun env ->
            let v = c1 env in
            Cost.op_alu env.cost;
            nf (Int64.lognot v)
      | Kc.Ast.Lognot ->
          fun env ->
            let v = c1 env in
            Cost.op_alu env.cost;
            if v = 0L then 1L else 0L)
  | I.Ebinop (op, a, b) -> cbinop ctx e.I.ety op a b
  | I.Econd (c, a, b) ->
      let cc = cexp ctx c in
      let ca = cexp ctx a in
      let cb = cexp ctx b in
      fun env ->
        let cv = cc env in
        Cost.op_branch env.cost;
        if cv <> 0L then ca env else cb env
  | I.Ecast (ty, e1) -> (
      let c1 = cexp ctx e1 in
      match normf_opt ty with None -> c1 | Some nf -> fun env -> nf (c1 env))
  | I.Eaddrof lv | I.Estartof lv -> (
      match cplace ctx lv with
      | CPmem (a, _) ->
          let fa = force a in
          fun env -> Int64.of_int (fa env)
      | CPreg _ -> fun _ -> Trap.trap Trap.Panic "address of register slot")
  | I.Eself_field _ ->
      fun _ -> Trap.trap Trap.Panic "Eself_field reached the interpreter (uninstantiated annotation)"

and cbinop ctx (rty : I.ty) op (ea : I.exp) (eb : I.exp) : env -> int64 =
  let prog = ctx.cc.prog in
  let open Int64 in
  match (op, ea.I.ety, eb.I.ety) with
  (* Pointer arithmetic scales by element size. *)
  | Kc.Ast.Add, I.Tptr (elt, _), _ ->
      let ca = cexp ctx ea in
      let cb = cexp ctx eb in
      let sz = of_int (Kc.Layout.size_of prog elt) in
      fun env ->
        let a = ca env in
        let b = cb env in
        Cost.op_alu env.cost;
        add a (mul b sz)
  | Kc.Ast.Sub, I.Tptr (elt, _), I.Tint _ ->
      let ca = cexp ctx ea in
      let cb = cexp ctx eb in
      let sz = of_int (Kc.Layout.size_of prog elt) in
      fun env ->
        let a = ca env in
        let b = cb env in
        Cost.op_alu env.cost;
        sub a (mul b sz)
  | Kc.Ast.Sub, I.Tptr (elt, _), I.Tptr _ ->
      let ca = cexp ctx ea in
      let cb = cexp ctx eb in
      let sz = of_int (Stdlib.max 1 (Kc.Layout.size_of prog elt)) in
      fun env ->
        let a = ca env in
        let b = cb env in
        Cost.op_alu env.cost;
        div (sub a b) sz
  | _ ->
      (* Non-pointer ALU: operands are classified so constants and
         register reads (both charge-free) fetch inline, and the op
         dispatches on a tag. Charges land as in Treewalk.eval_binop:
         operand effects in order, then op_alu, then compute (a
         trapping div/mod traps after the charge). *)
      let k = aluk_of op ~signed:(Vmstate.is_signed ea.I.ety) in
      let ns = if alu_is_bool k then Nid else nspec_of rty in
      ostat "spec:alu";
      let oa = classify ctx ea in
      let ob = classify ctx eb in
      cbinop_ops k ns oa ob

(* The ALU closure for already-classified operands: operand fetches in
   order, one ALU charge, compute (traps included), normalize. *)
and cbinop_ops (k : aluk) (ns : nspec) (oa : operand) (ob : operand) : env -> int64 =
  match (oa, ob) with
  | Oc x, Oc y ->
      if alu_can_trap k then fun env ->
        c_alu env;
        napply ns (alu_eval k x y)
      else
        let v = napply ns (alu_eval k x y) in
        fun env ->
          c_alu env;
          v
  | Oreg i, Oc y ->
      fun env ->
        let x = rget env.regs i in
        c_alu env;
        napply ns (alu_eval k x y)
  | Oc x, Oreg j ->
      fun env ->
        let y = rget env.regs j in
        c_alu env;
        napply ns (alu_eval k x y)
  | Oreg i, Oreg j ->
      fun env ->
        let x = rget env.regs i in
        let y = rget env.regs j in
        c_alu env;
        napply ns (alu_eval k x y)
  | Odyn fa, Oc y ->
      fun env ->
        let x = fa env in
        c_alu env;
        napply ns (alu_eval k x y)
  | Odyn fa, Oreg j ->
      fun env ->
        let x = fa env in
        let y = rget env.regs j in
        c_alu env;
        napply ns (alu_eval k x y)
  | Oc x, Odyn fb ->
      fun env ->
        let y = fb env in
        c_alu env;
        napply ns (alu_eval k x y)
  | Oreg i, Odyn fb ->
      fun env ->
        let x = rget env.regs i in
        let y = fb env in
        c_alu env;
        napply ns (alu_eval k x y)
  | Odyn fa, Odyn fb ->
      fun env ->
        let x = fa env in
        let y = fb env in
        c_alu env;
        napply ns (alu_eval k x y)

(* Operand classification. Constants fold through casts; a cast that
   normalizes wraps the fetch. Everything else compiles generically. *)
and classify ctx (e : I.exp) : operand =
  match e.I.e with
  | I.Econst n -> Oc n
  | I.Elval (I.Lvar v, []) when not v.I.vglob -> (
      match Hashtbl.find_opt ctx.slots v.I.vid with
      | Some (Sreg i) -> Oreg i
      | _ -> Odyn (cexp ctx e))
  | I.Ecast (ty, e1) -> (
      match normf_opt ty with
      | None -> classify ctx e1
      | Some nf -> (
          match classify ctx e1 with
          | Oc v -> Oc (nf v)
          | Oreg i -> Odyn (fun env -> nf (rget env.regs i))
          | Odyn f -> Odyn (fun env -> nf (f env))))
  | _ -> Odyn (cexp ctx e)

(* A pointer-arithmetic deref address as one flat closure, when the
   operands live in registers or constants: `p[i]` through a pointer
   parameter is the hottest addressing shape the workloads produce.
   Charge shape matches cbinop's pointer arms exactly — operand
   fetches (free for regs/consts), then one op_alu, then the scaled
   add — followed by the Int64.to_int the generic Lmem arm performs. *)
and cptr_flat ctx (e : I.exp) : caddr option =
  match e.I.e with
  | I.Ebinop (op, ea, eb) -> (
      let scaled k =
        match (classify ctx ea, classify ctx eb) with
        | Oreg p, Oreg i ->
            ostat "spec:addr";
            Some (Ari (p, i, k))
        | Oreg p, Oc c ->
            ostat "spec:addr";
            Some (Arc (p, Int64.to_int c * k))
        | _ -> None
      in
      match (op, ea.I.ety, eb.I.ety) with
      | Kc.Ast.Add, I.Tptr (elt, _), _ -> scaled (Kc.Layout.size_of ctx.cc.prog elt)
      | Kc.Ast.Sub, I.Tptr (elt, _), I.Tint _ -> scaled (-Kc.Layout.size_of ctx.cc.prog elt)
      | _ -> None)
  | _ -> None

(* Resolve an lvalue to a place at compile time, mirroring
   Treewalk.place_of_lval: same evaluation order, same Oindex ALU
   charge, same trap messages for malformed shapes. *)
and cplace ctx ((host, offs) : I.lval) : cplace =
  let prog = ctx.cc.prog in
  let base =
    match host with
    | I.Lvar v ->
        if v.I.vglob then
          match Hashtbl.find_opt ctx.cc.globals v.I.vid with
          | Some addr -> CPmem (Aconst addr, v.I.vty)
          | None -> raise Not_found (* matches the tree-walker's Hashtbl.find *)
        else (
          match Hashtbl.find_opt ctx.slots v.I.vid with
          | Some (Sreg i) -> CPreg (i, v.I.vty)
          | Some (Sstk off) -> CPmem (Abase off, v.I.vty)
          | None -> Trap.trap Trap.Panic "unbound local %s" v.I.vname)
    | I.Lmem e -> (
        let ty =
          match e.I.ety with
          | I.Tptr (ty, _) -> ty
          | _ -> Trap.trap Trap.Panic "deref of non-pointer"
        in
        match cptr_flat ctx e with
        | Some a -> CPmem (a, ty)
        | None ->
            let ce = cexp ctx e in
            CPmem (Adyn (fun env -> Int64.to_int (ce env)), ty))
  in
  List.fold_left
    (fun place off ->
      match (place, off) with
      | CPmem (a, _), I.Ofield f ->
          CPmem (add_const a (Kc.Layout.field_offset prog f), f.I.fty)
      | CPmem (a, I.Tarray (elt, _)), I.Oindex ie ->
          let esz = Kc.Layout.size_of prog elt in
          let generic () =
            let fa = force a in
            let ci = cexp ctx ie in
            Adyn
              (fun env ->
                let addr = fa env in
                let i = Int64.to_int (ci env) in
                Cost.op_alu env.cost;
                addr + (i * esz))
          in
          (* Known base + register/constant index flattens to one
             closure. The indexing ALU charge survives even when the
             whole address is a compile-time constant — the tree-walker
             charges it per access. *)
          let a' =
            match a with
            | Aconst b -> (
                match classify ctx ie with
                | Oc i ->
                    ostat "spec:addr";
                    let addr = b + (Int64.to_int i * esz) in
                    Adyn
                      (fun env ->
                        c_alu env;
                        addr)
                | Oreg r ->
                    ostat "spec:addr";
                    Adyn
                      (fun env ->
                        let i = Int64.to_int (rget env.regs r) in
                        c_alu env;
                        b + (i * esz))
                | Odyn _ -> generic ())
            | Abase o -> (
                match classify ctx ie with
                | Oc i ->
                    ostat "spec:addr";
                    let off = o + (Int64.to_int i * esz) in
                    Adyn
                      (fun env ->
                        c_alu env;
                        env.base + off)
                | Oreg r ->
                    ostat "spec:addr";
                    Adyn
                      (fun env ->
                        let i = Int64.to_int (rget env.regs r) in
                        c_alu env;
                        env.base + o + (i * esz))
                | Odyn _ -> generic ())
            | Ari _ | Arc _ | Adyn _ -> generic ()
          in
          CPmem (a', elt)
      | CPreg _, _ -> Trap.trap Trap.Panic "offset into register slot"
      | CPmem _, I.Oindex _ -> Trap.trap Trap.Panic "index of non-array")
    base offs

and cread ctx (lv : I.lval) : env -> int64 =
  match cplace ctx lv with
  | CPreg (i, _) -> fun env -> rget env.regs i
  | CPmem (a, ty) -> (
      let width = Vmstate.width_of ctx.cc.prog ty in
      let signed = Vmstate.is_signed ty in
      match a with
      | Aconst addr ->
          fun env ->
            Cost.op_load env.cost;
            Mem.load env.mem ~addr ~width ~signed
      | Abase o ->
          fun env ->
            let addr = env.base + o in
            Cost.op_load env.cost;
            Mem.load env.mem ~addr ~width ~signed
      | (Ari _ | Arc _ | Adyn _) as ad ->
          let fa = force ad in
          fun env ->
            let addr = fa env in
            Cost.op_load env.cost;
            Mem.load env.mem ~addr ~width ~signed)

and cwrite ctx (lv : I.lval) : env -> int64 -> unit =
  match cplace ctx lv with
  | CPreg (i, ty) -> (
      match normf_opt ty with
      | None -> fun env v -> rset env.regs i v
      | Some nf -> fun env v -> rset env.regs i (nf v))
  | CPmem (a, ty) -> (
      let width = Vmstate.width_of ctx.cc.prog ty in
      match a with
      | Aconst addr ->
          fun env v ->
            Cost.op_store env.cost;
            Mem.store env.mem ~addr ~width v
      | Abase o ->
          fun env v ->
            let addr = env.base + o in
            Cost.op_store env.cost;
            Mem.store env.mem ~addr ~width v
      | (Ari _ | Arc _ | Adyn _) as ad ->
          let fa = force ad in
          fun env v ->
            let addr = fa env in
            Cost.op_store env.cost;
            Mem.store env.mem ~addr ~width v)

(* Address of an lvalue (struct copies, &x): the place must be memory. *)
and caddr_of ctx (lv : I.lval) : env -> int =
  match cplace ctx lv with
  | CPmem (a, _) -> force a
  | CPreg _ -> Trap.trap Trap.Panic "address of register slot"

(* A compare condition split into its parts so terminator codegen can
   inline the whole test — fetches, ALU charge, predicate — into the
   terminator closure with no intermediate bool closure. Pointer-typed
   compares take cbinop's ALU arm too, so classifying them here is
   exactly faithful. *)
and ccond_cmp_parts ctx (e : I.exp) : (cmpk * operand * operand) option =
  match e.I.e with
  | I.Ebinop (op, ea, eb) -> (
      match cmpk_of op ~signed:(Vmstate.is_signed ea.I.ety) with
      | None -> None
      | Some ck ->
          let oa = classify ctx ea in
          let ob = classify ctx eb in
          ostat "spec:cmp-branch";
          Some (ck, oa, ob))
  | _ -> None

(* A register or constant branch condition as a direct test, with no
   1L/0L box. [None] falls back to the generic int64 path, which also
   defers any compile-time trap past the same branch charge. *)
let ccond_simple ctx (e : I.exp) : (env -> bool) option =
  match e.I.e with
  | I.Econst v ->
      let b = v <> 0L in
      Some (fun _ -> b)
  | I.Elval (I.Lvar v, []) when not v.I.vglob -> (
      match Hashtbl.find_opt ctx.slots v.I.vid with
      | Some (Sreg i) -> Some (fun env -> rget env.regs i <> 0L)
      | _ -> None)
  | _ -> None

(* Guards for terminator/return positions: compile-time traps on
   malformed shapes become runtime traps, as in the tree-walker. *)
let cexp_safe ctx (e : I.exp) : env -> int64 =
  match cexp ctx e with
  | f -> f
  | exception Trap.Trap (k, m) -> fun _ -> raise (Trap.Trap (k, m))

let classify_safe ctx (e : I.exp) : operand =
  match classify ctx e with
  | o -> o
  | exception Trap.Trap (k, m) -> Odyn (fun _ -> raise (Trap.Trap (k, m)))

(* A compare fused all the way into the terminator: optional fuel
   burn, branch charge, operand fetches, ALU charge, predicate — the
   tree-walker's order as one flat closure. [burns] is a captured
   immutable bool, so its branch predicts perfectly. *)
let cmp_term ~burns ck oa ob (tid : int) (fid : int) : env -> int =
  match (oa, ob) with
  | Oc x, Oc y ->
      let tgt = if cmp_eval ck x y then tid else fid in
      fun env ->
        if burns then burn env;
        c_branch env;
        c_alu env;
        tgt
  | Oreg i, Oc y ->
      fun env ->
        if burns then burn env;
        c_branch env;
        let x = rget env.regs i in
        c_alu env;
        if cmp_eval ck x y then tid else fid
  | Oc x, Oreg j ->
      fun env ->
        if burns then burn env;
        c_branch env;
        let y = rget env.regs j in
        c_alu env;
        if cmp_eval ck x y then tid else fid
  | Oreg i, Oreg j ->
      fun env ->
        if burns then burn env;
        c_branch env;
        let x = rget env.regs i in
        let y = rget env.regs j in
        c_alu env;
        if cmp_eval ck x y then tid else fid
  | Odyn fa, Oc y ->
      fun env ->
        if burns then burn env;
        c_branch env;
        let x = fa env in
        c_alu env;
        if cmp_eval ck x y then tid else fid
  | Odyn fa, Oreg j ->
      fun env ->
        if burns then burn env;
        c_branch env;
        let x = fa env in
        let y = rget env.regs j in
        c_alu env;
        if cmp_eval ck x y then tid else fid
  | Oc x, Odyn fb ->
      fun env ->
        if burns then burn env;
        c_branch env;
        let y = fb env in
        c_alu env;
        if cmp_eval ck x y then tid else fid
  | Oreg i, Odyn fb ->
      fun env ->
        if burns then burn env;
        c_branch env;
        let x = rget env.regs i in
        let y = fb env in
        c_alu env;
        if cmp_eval ck x y then tid else fid
  | Odyn fa, Odyn fb ->
      fun env ->
        if burns then burn env;
        c_branch env;
        let x = fa env in
        let y = fb env in
        c_alu env;
        if cmp_eval ck x y then tid else fid

(* ------------------------------------------------------------------ *)
(* Micro-ops: the one specialized instruction form.                  *)
(* ------------------------------------------------------------------ *)

(* The describable subset of instruction shapes, operands and
   addresses resolved at compile time. A block whose items all
   describe compiles to ONE closure stepping through descriptors —
   immediate-tag dispatch instead of a closure call per opcode; in
   any other block each described instruction is one closure running
   its descriptor. *)
type uop =
  | Ustore of caddr * int * operand (* dst addr, width, value *)
  | Ucopy of caddr * int * bool * caddr * int (* src addr/width/signed, dst addr/width *)
  | Uload of int * nspec * caddr * int * bool (* dst reg, dst norm, src addr, width, signed *)
  | Uregalu of int * nspec * nspec * aluk * operand * operand (* dst reg, dst/result norms *)
  | Ualur of int * nspec * nspec * aluk * int * int (* reg-reg ALU: dst, norms, kind, src regs *)
  | Ualuc of int * nspec * nspec * aluk * int * int64 (* reg-const ALU: dst, norms, kind, src, imm *)
  | Uregalum of int * nspec * nspec * aluk * bool * operand * caddr * int * bool
    (* ALU with one memory operand folded in: dst reg, dst/result
       norms, kind, memory-on-left, the other operand, then the
       memory side (addr, width, signed). *)
  | Uregset of int * nspec * operand (* dst reg, dst norm *)
  | Ucheck2 of bool * string * operand * operand (* strict, reason *)
  | Ucknonnull of string * operand
  | Unop (* fuel-only step: the loop-iteration charge *)
  | Utrap of Trap.kind * string
    (* a malformed instruction: describing it trapped, and running it
       raises that trap, as the tree-walker does only when executed *)

let[@inline] ofetch (env : env) (o : operand) : int64 =
  match o with Oc v -> v | Oreg i -> rget env.regs i | Odyn f -> f env

let[@inline] afetch (env : env) (a : caddr) : int =
  match a with
  | Aconst n -> n
  | Abase o -> env.base + o
  | Ari (p, i, k) ->
      let a = Int64.to_int (rget env.regs p) in
      let b = Int64.to_int (rget env.regs i) in
      c_alu env;
      a + (b * k)
  | Arc (p, d) ->
      let a = Int64.to_int (rget env.regs p) in
      c_alu env;
      a + d
  | Adyn f -> f env

(* One micro-op, fuel already burnt by the caller. Effect orders match
   the generic instruction closures (and so the tree-walker) exactly:
   value before address for stores, check charge before operand
   fetches, the same trap messages. *)
let run_uop (env : env) (u : uop) : unit =
  match u with
  | Ustore (a, w, o) ->
      let v = ofetch env o in
      let addr = afetch env a in
      c_store env;
      Mem.store env.mem ~addr ~width:w v
  | Ucopy (sa, sw, ss, da, dw) ->
      let saddr = afetch env sa in
      c_load env;
      if sw = dw && Mem.valid_fast env.mem saddr sw then begin
        (* Same width, source span valid: the load cannot trap, and a
           load/store round trip writes exactly the source bytes, so
           the pair collapses to a raw blit (no Int64 boxing). Source
           validity is decided before the destination address is
           computed, preserving trap order. *)
        let daddr = afetch env da in
        c_store env;
        if Mem.valid_fast env.mem daddr dw then Mem.blit_raw env.mem ~src:saddr ~dst:daddr ~width:dw
        else
          Mem.store env.mem ~addr:daddr ~width:dw
            (Mem.load env.mem ~addr:saddr ~width:sw ~signed:ss)
      end
      else begin
        let v = Mem.load env.mem ~addr:saddr ~width:sw ~signed:ss in
        let daddr = afetch env da in
        c_store env;
        Mem.store env.mem ~addr:daddr ~width:dw v
      end
  | Uload (k, ns, a, w, s) ->
      let addr = afetch env a in
      c_load env;
      rset env.regs k (napply ns (Mem.load env.mem ~addr ~width:w ~signed:s))
  | Uregalu (k, ns, nsr, ak, oa, ob) ->
      let x = ofetch env oa in
      let y = ofetch env ob in
      c_alu env;
      rset env.regs k (napply ns (napply nsr (alu_eval ak x y)))
  | Ualur (k, ns, nsr, ak, i, j) ->
      (* [Uregalu] with both operand tags resolved at compile time;
         register fetches are pure and charge-free, so the collapse is
         order-neutral. *)
      let x = rget env.regs i in
      let y = rget env.regs j in
      c_alu env;
      rset env.regs k (napply ns (napply nsr (alu_eval ak x y)))
  | Ualuc (k, ns, nsr, ak, i, y) ->
      let x = rget env.regs i in
      c_alu env;
      rset env.regs k (napply ns (napply nsr (alu_eval ak x y)))
  | Uregalum (k, ns, nsr, ak, mem_left, o, ma, w, s) ->
      (* Operands evaluate left to right, so the load charge lands
         before or after the other fetch depending on which side the
         memory operand sits — exactly as the two-closure form. *)
      if mem_left then begin
        let addr = afetch env ma in
        c_load env;
        let x = Mem.load env.mem ~addr ~width:w ~signed:s in
        let y = ofetch env o in
        c_alu env;
        rset env.regs k (napply ns (napply nsr (alu_eval ak x y)))
      end
      else begin
        let x = ofetch env o in
        let addr = afetch env ma in
        c_load env;
        let y = Mem.load env.mem ~addr ~width:w ~signed:s in
        c_alu env;
        rset env.regs k (napply ns (napply nsr (alu_eval ak x y)))
      end
  | Uregset (k, ns, o) -> rset env.regs k (napply ns (ofetch env o))
  | Ucheck2 (strict, reason, oa, ob) ->
      c_check env;
      let x = ofetch env oa in
      let y = ofetch env ob in
      if if strict then x >= y else x > y then
        if strict then Trap.trap Trap.Check_failed "%s (%Ld >= %Ld)" reason x y
        else Trap.trap Trap.Check_failed "%s (%Ld > %Ld)" reason x y
  | Ucknonnull (reason, o) ->
      c_check env;
      if ofetch env o = 0L then Trap.trap Trap.Check_failed "null pointer: %s" reason
  | Unop -> ()
  | Utrap (k, m) -> raise (Trap.Trap (k, m))

(* ------------------------------------------------------------------ *)
(* Calls (runtime entry points, shared with instruction closures).    *)
(* ------------------------------------------------------------------ *)

let call_builtin (st : Vmstate.t) (name : string) (args : int64 array) : int64 =
  match Hashtbl.find_opt st.Vmstate.builtins name with
  | Some impl -> impl st (Array.to_list args)
  | None -> Trap.trap Trap.Unknown_function "call to undefined function %s" name

let rec get_cfun (cc : t) (fd : I.fundec) : cfun =
  match Hashtbl.find_opt cc.by_fid fd.I.fid with
  | None -> compile_fun cc fd (* synthetic fundec outside the program: uncached *)
  | Some idx -> (
      match Array.unsafe_get cc.cfuns idx with
      | Some cf when cf.cf_body == fd.I.fbody -> cf
      | _ ->
          let cf = compile_fun cc fd in
          cc.cfuns.(idx) <- Some cf;
          cf)

and call_fd (cc : t) (st : Vmstate.t) (fd : I.fundec) (args : int64 array) : int64 =
  if fd.I.fextern then call_by_name_c cc st fd.I.fname args
  else begin
    st.Vmstate.call_depth <- st.Vmstate.call_depth + 1;
    if st.Vmstate.call_depth > 2000 then
      Trap.trap Trap.Stack_overflow_trap "call depth > 2000 in %s" fd.I.fname;
    if st.Vmstate.call_depth > st.Vmstate.max_call_depth then
      st.Vmstate.max_call_depth <- st.Vmstate.call_depth;
    let cf = get_cfun cc fd in
    let m = st.Vmstate.m in
    let base = Machine.push_frame m (max 16 cf.cf_frame_bytes) in
    let nregs = cf.cf_nregs in
    (* Register files come from the machine's pool when one is wide
       enough (zeroing just the slots this frame uses); a trap unwinds
       past the give-back, which only costs the pool an entry. *)
    let regs =
      match st.Vmstate.scratch with
      | r :: rest when Bigarray.Array1.dim r >= nregs ->
          st.Vmstate.scratch <- rest;
          for i = 0 to nregs - 1 do
            rset r i 0L
          done;
          r
      | _ -> regfile_make (max nregs 32)
    in
    let env = { st; m; cost = m.Machine.cost; mem = m.Machine.mem; regs; base; retv = 0L } in
    let binders = cf.cf_binders in
    let na = Array.length args in
    for i = 0 to Array.length binders - 1 do
      (Array.unsafe_get binders i) env (if i < na then Array.unsafe_get args i else 0L)
    done;
    let blocks = cf.cf_blocks in
    let pc = ref 0 in
    while !pc >= 0 do
      let b = Array.unsafe_get blocks !pc in
      let is = b.instrs in
      for i = 0 to Array.length is - 1 do
        (Array.unsafe_get is i) env
      done;
      pc := b.term env
    done;
    Machine.pop_frame m base;
    st.Vmstate.scratch <- regs :: st.Vmstate.scratch;
    st.Vmstate.call_depth <- st.Vmstate.call_depth - 1;
    cf.cf_ret_norm env.retv
  end

and call_by_name_c (cc : t) (st : Vmstate.t) name (args : int64 array) : int64 =
  match I.find_fun st.Vmstate.prog name with
  | Some fd when not fd.I.fextern -> call_fd cc st fd args
  | _ -> call_builtin st name args

(* ------------------------------------------------------------------ *)
(* Instructions.                                                      *)
(* ------------------------------------------------------------------ *)

(* Every instruction closure burns fuel first, as exec_instr does. *)
and compile_instr ctx (instr : I.instr) : env -> unit =
  match compile_instr_inner ctx instr with
  | f -> f
  | exception Trap.Trap (k, m) ->
      (* A malformed instruction the tree-walker would only trap on
         when executed: defer the trap into the closure so dead code
         stays equivalent. *)
      fun env ->
        Machine.burn_fuel env.m;
        raise (Trap.Trap (k, m))

and compile_instr_inner ctx (instr : I.instr) : env -> unit =
  let prog = ctx.cc.prog in
  match instr with
  | I.Iset (lv, e) -> (
      (* Struct assignment, a block copy between lvalues: every other
         [Iset] describes as a micro-op ([describe_set]). *)
      let ty = Vmstate.lval_type lv in
      match e.I.e with
      | I.Elval src_lv ->
          let cdst = caddr_of ctx lv in
          let csrc = caddr_of ctx src_lv in
          let size = Kc.Layout.size_of prog ty in
          let chg = size / 4 in
          fun env ->
            Machine.burn_fuel env.m;
            let dst = cdst env in
            let src = csrc env in
            Cost.charge env.cost chg;
            Mem.blit_copy env.mem ~src ~dst size
      | _ ->
          fun env ->
            Machine.burn_fuel env.m;
            Trap.trap Trap.Panic "struct assignment from non-lvalue")
  | I.Icall (ret, target, args) -> (
      let cargs = Array.of_list (List.map (cexp ctx) args) in
      let nargs = Array.length cargs in
      let eval_args env =
        let a = Array.make nargs 0L in
        for i = 0 to nargs - 1 do
          Array.unsafe_set a i ((Array.unsafe_get cargs i) env)
        done;
        a
      in
      let cret : env -> int64 -> unit =
        match ret with None -> fun _ _ -> () | Some lv -> cwrite ctx lv
      in
      let cc = ctx.cc in
      match target with
      | I.Direct name -> (
          match I.find_fun prog name with
          | Some fd when not fd.I.fextern ->
              fun env ->
                Machine.burn_fuel env.m;
                let args = eval_args env in
                Cost.op_call env.cost;
                let r = call_fd cc env.st fd args in
                cret env r
          | _ ->
              (* extern or undeclared: the builtin table by name, with
                 the builtin resolved per call (late registration). *)
              fun env ->
                Machine.burn_fuel env.m;
                let args = eval_args env in
                Cost.op_call env.cost;
                let r = call_builtin env.st name args in
                cret env r)
      | I.Indirect fe ->
          let cfe = cexp ctx fe in
          fun env ->
            Machine.burn_fuel env.m;
            let args = eval_args env in
            Cost.op_call env.cost;
            let fv = cfe env in
            let r =
              match Vmstate.fptr_decode fv with
              | Some fid -> (
                  match Hashtbl.find_opt env.st.Vmstate.fun_of_id fid with
                  | Some fd -> call_fd cc env.st fd args
                  | None -> Trap.trap Trap.Unknown_function "bad function pointer %Ld" fv)
              | None -> Trap.trap Trap.Unknown_function "call through non-function value %Ld" fv
            in
            cret env r)
  | I.Icheck (ck, reason) -> compile_check_generic ctx ck reason
  | I.Irc_inc e ->
      let ce = cexp ctx e in
      fun env ->
        Machine.burn_fuel env.m;
        let v = ce env in
        if v <> 0L then begin
          Mem.rc_inc env.mem v;
          Cost.op_rc env.cost
        end
  | I.Irc_dec e ->
      let ce = cexp ctx e in
      fun env ->
        Machine.burn_fuel env.m;
        let v = ce env in
        if v <> 0L then begin
          Mem.rc_dec env.mem v;
          Cost.op_rc env.cost
        end
  | I.Irc_update (lv, e) -> (
      match cplace ctx lv with
      | CPreg _ ->
          (* Register slots are untracked (paper footnote 2). *)
          fun env -> Machine.burn_fuel env.m
      | CPmem (a, _) ->
          let fa = force a in
          let ce = cexp ctx e in
          let lo = Mem.stack_base in
          let hi = Mem.stack_base + Mem.stack_size in
          fun env ->
            Machine.burn_fuel env.m;
            let addr = fa env in
            if not (addr >= lo && addr < hi) then begin
              let new_target = ce env in
              if new_target <> 0L then begin
                Mem.rc_inc env.mem new_target;
                Cost.op_rc env.cost
              end;
              let old = Mem.load env.mem ~addr ~width:8 ~signed:false in
              if old <> 0L then begin
                Mem.rc_dec env.mem old;
                Cost.op_rc env.cost
              end
            end)

(* [describe_set] classifies a non-struct [Iset] into a flat [uop]
   descriptor: load into a register, register move or constant, ALU
   into a register (with a memory operand folded in), copy between
   memory places, or a store of a classified value. [run_uop] replays
   the generic closure's effect order — fuel, value, address, store
   charge — and normalizes register writes through the destination
   type. The source side is resolved before the destination, so a
   compile-time trap from a malformed source wins, as in the generic
   cexp-then-cwrite order. *)
and describe_set ctx (lv : I.lval) (e : I.exp) : uop option =
  match Vmstate.lval_type lv with
  | I.Tcomp _ -> None
  | _ -> (
      (* An ALU operand that is itself a memory read folds into the
         micro-op ([Uregalum]); anything else classifies as usual. The
         closure form of a memory operand (for shapes that keep the
         two-closure ALU) reproduces [cread]'s charge order. *)
      let xop (e1 : I.exp) =
        match e1.I.e with
        | I.Elval (I.Lvar v, []) when not v.I.vglob -> `O (classify ctx e1)
        | I.Elval lv1 -> (
            match cplace ctx lv1 with
            | CPmem (a, ty) -> `M (a, Vmstate.width_of ctx.cc.prog ty, Vmstate.is_signed ty)
            | CPreg (j, _) -> `O (Oreg j))
        | _ -> `O (classify ctx e1)
      in
      let operand_of = function
        | `O o -> o
        | `M (a, w, s) ->
            let fa = force a in
            Odyn
              (fun env ->
                let addr = fa env in
                c_load env;
                Mem.load env.mem ~addr ~width:w ~signed:s)
      in
      let src =
        match e.I.e with
        | I.Elval src_lv -> `Place (cplace ctx src_lv)
        | I.Ebinop (op2, ea, eb)
          when (match (op2, ea.I.ety) with
               | (Kc.Ast.Add | Kc.Ast.Sub), I.Tptr _ -> false
               | _ -> true) ->
            let ak = aluk_of op2 ~signed:(Vmstate.is_signed ea.I.ety) in
            let nsr = if alu_is_bool ak then Nid else nspec_of e.I.ety in
            `Alu (ak, nsr, xop ea, xop eb)
        | _ -> `Op (classify ctx e)
      in
      match cplace ctx lv with
      | CPreg (k, vty) -> (
          let ns = nspec_of vty in
          match src with
          | `Place (CPmem (a, sty)) ->
              Some
                (Uload (k, ns, a, Vmstate.width_of ctx.cc.prog sty, Vmstate.is_signed sty))
          | `Place (CPreg (j, _)) -> Some (Uregset (k, ns, Oreg j))
          | `Op (Oc v) -> Some (Uregset (k, Nid, Oc (napply ns v)))
          | `Op o -> Some (Uregset (k, ns, o))
          | `Alu (ak, nsr, `M (ma, mw, ms), ob) ->
              Some (Uregalum (k, ns, nsr, ak, true, operand_of ob, ma, mw, ms))
          | `Alu (ak, nsr, (`O oa : [ `O of operand | `M of caddr * int * bool ]), `M (ma, mw, ms)) ->
              Some (Uregalum (k, ns, nsr, ak, false, oa, ma, mw, ms))
          | `Alu (ak, nsr, `O (Oreg i), `O (Oreg j)) -> Some (Ualur (k, ns, nsr, ak, i, j))
          | `Alu (ak, nsr, `O (Oreg i), `O (Oc y)) -> Some (Ualuc (k, ns, nsr, ak, i, y))
          | `Alu (ak, nsr, `O oa, `O ob) -> Some (Uregalu (k, ns, nsr, ak, oa, ob)))
      | CPmem (a, mty) -> (
          let width = Vmstate.width_of ctx.cc.prog mty in
          match src with
          | `Place (CPmem (sa, sty)) ->
              Some
                (Ucopy (sa, Vmstate.width_of ctx.cc.prog sty, Vmstate.is_signed sty, a, width))
          | `Place (CPreg (j, _)) -> Some (Ustore (a, width, Oreg j))
          | `Op o -> Some (Ustore (a, width, o))
          | `Alu (ak, nsr, oa, ob) ->
              Some
                (Ustore (a, width, Odyn (cbinop_ops ak nsr (operand_of oa) (operand_of ob))))))

and describe_instr ctx (i : I.instr) : uop option =
  match i with
  | I.Iset (lv, e) -> describe_set ctx lv e
  (* A check charges before it fetches its operands, so an operand's
     compile-time trap is deferred into the fetch, after the charge. *)
  | I.Icheck (I.Ck_nonnull e, reason) -> Some (Ucknonnull (reason, classify_safe ctx e))
  | I.Icheck (I.Ck_le (a, b), reason) ->
      Some (Ucheck2 (false, reason, classify_safe ctx a, classify_safe ctx b))
  | I.Icheck (I.Ck_lt (a, b), reason) ->
      Some (Ucheck2 (true, reason, classify_safe ctx a, classify_safe ctx b))
  | _ -> None

(* One micro-op per mid-level item, or [None] where the item has no
   uop form. Described once per block: the flat attempt and the
   per-item fallback share the descriptors, so every specialization
   site is compiled (and counted) once. A compile-time trap while
   describing is kept as [Utrap]: the item burns its fuel, then
   raises, so dead code stays equivalent. *)
and describe_mi ctx (item : mi) : uop option =
  match item with
  | Mi i -> ( try describe_instr ctx i with Trap.Trap (k, m) -> Some (Utrap (k, m)))
  | Mfuel -> Some Unop
  | Mscope_enter | Mscope_exit _ | Mretval _ -> None

(* Whole-block fusion: when every item of a block describes as a
   micro-op and the terminator is a goto, return, or classified
   compare-and-branch, the block compiles to a single closure the
   runner invokes once per visit — one indirect call per block per
   iteration instead of one per opcode. A hot while-loop body (after
   [peep_termcopy] copies the head's compare onto the back edge)
   executes each iteration in exactly one closure call. Charge and
   trap orders are the item closures' own, laid end to end. *)
and codegen_block_flat ctx ~self (us : uop option list) (mt : mterm) : (env -> int) option =
  if List.is_empty us || List.exists Option.is_none us then None
  else (
    let a = Array.of_list (List.map Option.get us) in
    let n = Array.length a in
    (* Terminator shape: compares keep their parts so a self-loop
       can inline the condition; everything else becomes a tail
       closure — [cmp_term] carries the nine operand-specialized
       compare arms, so a non-spinning loop condition costs two
       register reads, not two operand-tag dispatches. *)
    let shape =
      match mt with
      | Mgoto t -> Some (`Tail (fun _ -> t))
      | Mret -> Some (`Tail (fun _ -> -1))
      | Mif (c, tid, fid) -> (
          match try ccond_cmp_parts ctx c with Trap.Trap _ -> None with
          | Some (ck, oa, ob) -> Some (`Cmp (false, ck, oa, ob, tid, fid))
          | None -> None)
      | Mwhile (c, tid, fid) -> (
          match try ccond_cmp_parts ctx c with Trap.Trap _ -> None with
          | Some (ck, oa, ob) -> Some (`Cmp (true, ck, oa, ob, tid, fid))
          | None -> None)
      | Mdowhile (c, tid, fid) -> (
          match try ccond_cmp_parts ctx c with Trap.Trap _ -> None with
          | Some (ck, oa, ob) -> Some (`Cmp (false, ck, oa, ob, tid, fid))
          | None -> None)
      | Munset | Mswitch _ -> None
    in
    match shape with
    | None -> None
    | Some (`Cmp (burns, ck, oa, ob, tid, fid)) when tid = self && n <= 4 ->
        (* The back edge targets this very block (peep_termcopy
           put the loop compare here), so spin without returning
           to the runner: each iteration is the uop run plus the
           inlined condition, charge-for-charge the sequence the
           runner would have produced, and the closure returns
           only when the compare finally fails. *)
        ostat "fuse:block";
        ostat "fuse:block-loop";
        Some
          (match a with
          | [| u1 |] ->
              fun env ->
                let rec go () =
                  burn env;
                  run_uop env u1;
                  if burns then burn env;
                  c_branch env;
                  let x = ofetch env oa in
                  let y = ofetch env ob in
                  c_alu env;
                  if cmp_eval ck x y then go () else fid
                in
                go ()
          | [| u1; u2 |] -> (
              (* The two-uop body (op + loop increment) is the hot
                 shape, so its condition fetches are specialized
                 on the common operand pairs. *)
              match (oa, ob) with
              | Oreg ra, Oreg rb ->
                  fun env ->
                    let regs = env.regs in
                    let rec go () =
                      burn env;
                      run_uop env u1;
                      burn env;
                      run_uop env u2;
                      if burns then burn env;
                      c_branch env;
                      let x = rget regs ra in
                      let y = rget regs rb in
                      c_alu env;
                      if cmp_eval ck x y then go () else fid
                    in
                    go ()
              | Oreg ra, Oc y ->
                  fun env ->
                    let regs = env.regs in
                    let rec go () =
                      burn env;
                      run_uop env u1;
                      burn env;
                      run_uop env u2;
                      if burns then burn env;
                      c_branch env;
                      let x = rget regs ra in
                      c_alu env;
                      if cmp_eval ck x y then go () else fid
                    in
                    go ()
              | _ ->
                  fun env ->
                    let rec go () =
                      burn env;
                      run_uop env u1;
                      burn env;
                      run_uop env u2;
                      if burns then burn env;
                      c_branch env;
                      let x = ofetch env oa in
                      let y = ofetch env ob in
                      c_alu env;
                      if cmp_eval ck x y then go () else fid
                    in
                    go ())
          | [| u1; u2; u3 |] ->
              fun env ->
                let rec go () =
                  burn env;
                  run_uop env u1;
                  burn env;
                  run_uop env u2;
                  burn env;
                  run_uop env u3;
                  if burns then burn env;
                  c_branch env;
                  let x = ofetch env oa in
                  let y = ofetch env ob in
                  c_alu env;
                  if cmp_eval ck x y then go () else fid
                in
                go ()
          | _ ->
              let u1 = a.(0) and u2 = a.(1) and u3 = a.(2) and u4 = a.(3) in
              fun env ->
                let rec go () =
                  burn env;
                  run_uop env u1;
                  burn env;
                  run_uop env u2;
                  burn env;
                  run_uop env u3;
                  burn env;
                  run_uop env u4;
                  if burns then burn env;
                  c_branch env;
                  let x = ofetch env oa in
                  let y = ofetch env ob in
                  c_alu env;
                  if cmp_eval ck x y then go () else fid
                in
                go ())
    | Some shape ->
        let tail =
          match shape with
          | `Tail f -> f
          | `Cmp (burns, ck, oa, ob, tid, fid) -> cmp_term ~burns ck oa ob tid fid
        in
        ostat "fuse:block";
        Some
          (match a with
          | [| u1 |] ->
              fun env ->
                burn env;
                run_uop env u1;
                tail env
          | [| u1; u2 |] ->
              fun env ->
                burn env;
                run_uop env u1;
                burn env;
                run_uop env u2;
                tail env
          | [| u1; u2; u3 |] ->
              fun env ->
                burn env;
                run_uop env u1;
                burn env;
                run_uop env u2;
                burn env;
                run_uop env u3;
                tail env
          | [| u1; u2; u3; u4 |] ->
              fun env ->
                burn env;
                run_uop env u1;
                burn env;
                run_uop env u2;
                burn env;
                run_uop env u3;
                burn env;
                run_uop env u4;
                tail env
          | _ ->
              fun env ->
                for j = 0 to n - 1 do
                  burn env;
                  run_uop env (Array.unsafe_get a j)
                done;
                tail env))

(* The checks [describe_instr] has no micro-op for. *)
and compile_check_generic ctx (ck : I.check) (reason : string) : env -> unit =
  match ck with
  | I.Ck_nonnull _ | I.Ck_le _ | I.Ck_lt _ -> assert false (* [Ucknonnull], [Ucheck2] *)
  | I.Ck_nt_next (e, width) ->
      let ce = cexp ctx e in
      fun env ->
        Machine.burn_fuel env.m;
        Cost.op_nt_check env.cost;
        let p = Int64.to_int (ce env) in
        let v = Mem.load env.mem ~addr:p ~width ~signed:false in
        if v = 0L then
          Trap.trap Trap.Check_failed "nullterm advance past terminator: %s" reason
  | I.Ck_not_atomic ->
      fun env ->
        Machine.burn_fuel env.m;
        Cost.op_check env.cost;
        if Machine.atomic_context env.m then
          Trap.trap Trap.Not_atomic_check "assertion: not in atomic context (%s)" reason

(* ------------------------------------------------------------------ *)
(* Phase C: mid-level items and terminators to closures.              *)
(* ------------------------------------------------------------------ *)

(* A mid-level block to a runner block: one closure for the whole
   block when it fuses, otherwise one closure per item plus the
   terminator. Items are described once and both paths share them. *)
and codegen_block ctx ~self (mb : mblock) : bblock =
  let described = List.map (describe_mi ctx) mb.mis in
  match codegen_block_flat ctx ~self described mb.mt with
  | Some f -> { bid = self; instrs = [||]; term = f }
  | None ->
      {
        bid = self;
        instrs = Array.of_list (List.map2 (codegen_mi ctx) mb.mis described);
        term = codegen_term ctx mb.mt;
      }

(* An item's closure. A described instruction runs as its micro-op. *)
and codegen_mi ctx (item : mi) (described : uop option) : env -> unit =
  match (item, described) with
  | Mi _, Some u ->
      ostat "spec:uop";
      fun env ->
        burn env;
        run_uop env u
  | Mi i, None -> compile_instr ctx i
  | Mfuel, _ -> fun env -> Machine.burn_fuel env.m
  | Mscope_enter, _ -> fun env -> Machine.delayed_scope_enter env.m
  | Mscope_exit where, _ -> fun env -> Machine.delayed_scope_exit env.m ~where
  | Mretval None, _ -> fun env -> env.retv <- 0L
  | Mretval (Some e), _ -> (
      match classify_safe ctx e with
      | Oc v -> fun env -> env.retv <- v
      | Oreg i -> fun env -> env.retv <- rget env.regs i
      | Odyn f -> fun env -> env.retv <- f env)

and codegen_term ctx (t : mterm) : env -> int =
  match t with
  | Munset -> assert false
  | Mgoto tgt -> fun _ -> tgt
  | Mret -> fun _ -> -1
  | Mif (c, tid, fid) -> (
      match (try ccond_cmp_parts ctx c with Trap.Trap _ -> None) with
      | Some (ck, oa, ob) -> cmp_term ~burns:false ck oa ob tid fid
      | None -> (
          match ccond_simple ctx c with
          | Some cb ->
              fun env ->
                c_branch env;
                if cb env then tid else fid
          | None ->
              let cc = cexp_safe ctx c in
              fun env ->
                Cost.op_branch env.cost;
                if cc env <> 0L then tid else fid))
  | Mwhile (c, bodyid, exitid) -> (
      (* One loop iteration: fuel burn, branch charge, condition — in
         the tree-walker's order. *)
      match (try ccond_cmp_parts ctx c with Trap.Trap _ -> None) with
      | Some (ck, oa, ob) -> cmp_term ~burns:true ck oa ob bodyid exitid
      | None -> (
          match ccond_simple ctx c with
          | Some cb ->
              fun env ->
                burn env;
                c_branch env;
                if cb env then bodyid else exitid
          | None ->
              let cc = cexp_safe ctx c in
              fun env ->
                Machine.burn_fuel env.m;
                Cost.op_branch env.cost;
                if cc env = 0L then exitid else bodyid))
  | Mdowhile (c, headid, exitid) -> (
      match (try ccond_cmp_parts ctx c with Trap.Trap _ -> None) with
      | Some (ck, oa, ob) -> cmp_term ~burns:false ck oa ob headid exitid
      | None -> (
          match ccond_simple ctx c with
          | Some cb ->
              fun env ->
                c_branch env;
                if cb env then headid else exitid
          | None ->
              let cc = cexp_safe ctx c in
              fun env ->
                Cost.op_branch env.cost;
                if cc env <> 0L then headid else exitid))
  | Mswitch (e, tbl, default) ->
      let ce = cexp_safe ctx e in
      let ncases = Array.length tbl in
      fun env ->
        let v = ce env in
        Cost.op_branch env.cost;
        let rec find i =
          if i >= ncases then default
          else
            let vs, b = Array.unsafe_get tbl i in
            if arr_mem v vs then b else find (i + 1)
        in
        find 0

(* ------------------------------------------------------------------ *)
(* Functions.                                                         *)
(* ------------------------------------------------------------------ *)

and compile_fun (cc : t) (fd : I.fundec) : cfun =
  cc.compiles <- cc.compiles + 1;
  let prog = cc.prog in
  let layout, frame_bytes = Kc.Layout.frame prog fd in
  let slots = Hashtbl.create 16 in
  let nregs = ref 0 in
  List.iter
    (fun ((v : I.varinfo), off) ->
      match off with
      | Some o -> Hashtbl.replace slots v.I.vid (Sstk o)
      | None ->
          Hashtbl.replace slots v.I.vid (Sreg !nregs);
          incr nregs)
    layout;
  let binders =
    Array.of_list
      (List.map
         (fun (v : I.varinfo) ->
           match Hashtbl.find slots v.I.vid with
           | Sreg i -> (
               match normf_opt v.I.vty with
               | None -> fun env value -> rset env.regs i value
               | Some nf -> fun env value -> rset env.regs i (nf value))
           | Sstk o ->
               let width = Vmstate.width_of prog v.I.vty in
               fun env value -> Mem.store env.mem ~addr:(env.base + o) ~width value)
         fd.I.sformals)
  in
  (* Phase A: structured IR to mid-level blocks. *)
  let dummy = { mid = -1; mis = []; mt = Munset } in
  let lo = { lblocks = []; lnb = 0; lcur = dummy; lacc = [] } in
  let entry = new_mb lo in
  startm lo entry;
  lower_block lo { brk = None; cont = None; scopes = [] } fd.I.fbody;
  sealm lo Mret;
  let mbs = Array.make (max lo.lnb 1) dummy in
  List.iter (fun b -> mbs.(b.mid) <- b) lo.lblocks;
  (* Phase B: peephole. *)
  let mbs = peephole mbs in
  (* Phase C: closure codegen. *)
  let ctx = { cc; slots } in
  let blocks = Array.mapi (fun i mb -> codegen_block ctx ~self:i mb) mbs in
  {
    cf_body = fd.I.fbody;
    cf_nregs = !nregs;
    cf_frame_bytes = frame_bytes;
    cf_blocks = blocks;
    cf_binders = binders;
    cf_ret_norm = normf fd.I.fret;
  }

(* ------------------------------------------------------------------ *)
(* The per-program cache.                                             *)
(* ------------------------------------------------------------------ *)

let create_cache (prog : I.program) : t =
  let n = List.length prog.I.funcs in
  let by_fid = Hashtbl.create (max 16 n) in
  List.iteri (fun i (fd : I.fundec) -> Hashtbl.replace by_fid fd.I.fid i) prog.I.funcs;
  let globals, _brk = Vmstate.global_layout prog in
  { prog; by_fid; cfuns = Array.make (max n 1) None; globals; compiles = 0 }

(* One compiled program per [I.program], keyed by physical identity.
   The ephemeron keeps the key weak: when a fuzz case's program dies,
   its compiled code goes with it. The mutex covers parallel fuzz
   workers booting programs concurrently (each worker has its own
   programs; only the table itself is shared). *)
module ProgTbl = Ephemeron.K1.Make (struct
  type nonrec t = I.program

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let cache_tbl : t ProgTbl.t = ProgTbl.create 16
let cache_lock = Mutex.create ()

let of_program (prog : I.program) : t =
  Mutex.lock cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache_lock)
    (fun () ->
      match ProgTbl.find_opt cache_tbl prog with
      | Some c -> c
      | None ->
          let c = create_cache prog in
          ProgTbl.add cache_tbl prog c;
          c)

let call (cc : t) (st : Vmstate.t) (fd : I.fundec) (argv : int64 list) : int64 =
  call_fd cc st fd (Array.of_list argv)

let install (st : Vmstate.t) : unit =
  let cc = of_program st.Vmstate.prog in
  st.Vmstate.run_fn <- Some (fun st fd argv -> call cc st fd argv)

let compilations (cc : t) : int = cc.compiles
