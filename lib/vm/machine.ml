(* Machine state: memory + allocator + cost accounting + kernel-ish
   execution state (interrupt flag, locks, interrupt context), plus
   the CCount runtime (shadow refcounts, RTTI, delayed-free scopes,
   free census).

   The machine is the substrate shared by the interpreter and the
   builtin kernel API; it knows nothing about the IR. *)

type bad_free = {
  bf_addr : int;
  bf_rc : int; (* residual refcount sum at free time *)
  bf_where : string;
}

type config = {
  rc_check : bool; (* CCount instrumentation active *)
  zero_alloc : bool; (* zero allocated storage (CCount requires it) *)
  leak_on_bad_free : bool; (* soundness-preserving leak *)
  rc_overflow_check : bool; (* trap on 8-bit counter overflow *)
  profile : Cost.profile;
  fuel : int; (* interpreter step budget *)
}

let default_config =
  {
    rc_check = false;
    zero_alloc = false;
    leak_on_bad_free = true;
    rc_overflow_check = false;
    profile = Cost.Up;
    fuel = 200_000_000;
  }

type t = {
  mem : Mem.t;
  alloc : Alloc.t;
  cost : Cost.t;
  config : config;
  (* Execution state *)
  mutable irq_depth : int; (* >0 means interrupts disabled *)
  mutable in_interrupt : bool;
  mutable locks_held : int list; (* lock addresses, most recent first *)
  mutable fuel_left : int;
  mutable sp : int; (* interpreter stack pointer *)
  (* CCount runtime *)
  irq_handlers : (int, int64) Hashtbl.t; (* irq number -> handler fptr *)
  rtti : (int, int) Hashtbl.t; (* object addr -> type id *)
  type_ptr_offsets : (int, int list) Hashtbl.t; (* type id -> ptr offsets *)
  type_sizes : (int, int) Hashtbl.t; (* type id -> size *)
  mutable delayed_stack : int list list; (* pending frees per open scope *)
  mutable good_frees : int;
  mutable bad_frees : bad_free list;
  (* Observability *)
  mutable console : string list; (* printk output, newest first *)
  mutable panic_log : string list;
}

let create ?(config = default_config) () =
  let mem = Mem.create () in
  mem.Mem.rc_enabled <- config.rc_check;
  mem.Mem.rc_overflow_trap <- config.rc_overflow_check;
  {
    mem;
    alloc = Alloc.create mem;
    cost = Cost.create ~profile:config.profile ();
    config;
    irq_depth = 0;
    in_interrupt = false;
    locks_held = [];
    fuel_left = config.fuel;
    sp = Mem.stack_base;
    irq_handlers = Hashtbl.create 8;
    rtti = Hashtbl.create 256;
    type_ptr_offsets = Hashtbl.create 64;
    type_sizes = Hashtbl.create 64;
    delayed_stack = [];
    good_frees = 0;
    bad_frees = [];
    console = [];
    panic_log = [];
  }

let atomic_context m = m.irq_depth > 0 || m.in_interrupt

let burn_fuel m =
  m.fuel_left <- m.fuel_left - 1;
  if m.fuel_left <= 0 then Trap.trap Trap.Out_of_fuel "interpreter fuel exhausted"

(* ------------------------------------------------------------------ *)
(* Stack frames for the interpreter.                                  *)
(* ------------------------------------------------------------------ *)

let push_frame m bytes : int =
  let aligned = (bytes + 15) / 16 * 16 in
  let base = m.sp in
  if base + aligned > Mem.stack_base + Mem.stack_size then
    Trap.trap Trap.Stack_overflow_trap "VM stack exhausted";
  m.sp <- base + aligned;
  Mem.set_valid m.mem base aligned true;
  Mem.blit_zero m.mem base aligned;
  base

let pop_frame m base =
  Mem.set_valid m.mem base (m.sp - base) false;
  m.sp <- base

(* ------------------------------------------------------------------ *)
(* CCount runtime.                                                    *)
(* ------------------------------------------------------------------ *)

let register_type m ~type_id ~size ~ptr_offsets =
  Hashtbl.replace m.type_sizes type_id size;
  Hashtbl.replace m.type_ptr_offsets type_id ptr_offsets

let set_obj_type m ~addr ~type_id = Hashtbl.replace m.rtti addr type_id

(* Pointer slots of a live object, according to registered RTTI.
   Arrays of a registered type replicate the element map. *)
let ptr_slots m addr size : int list =
  match Hashtbl.find_opt m.rtti addr with
  | None -> []
  | Some tid -> (
      match (Hashtbl.find_opt m.type_ptr_offsets tid, Hashtbl.find_opt m.type_sizes tid) with
      | Some offs, Some tsz when tsz > 0 ->
          let n = max 1 (size / tsz) in
          List.concat (List.init n (fun i -> List.map (fun o -> (i * tsz) + o) offs))
      | _ -> [])

(* Drop the outgoing references of an object that is about to vanish
   (freed, or overwritten by a typed memset). *)
let drop_outgoing_refs m addr size =
  if m.config.rc_check then
    List.iter
      (fun off ->
        let target = Mem.load m.mem ~addr:(addr + off) ~width:8 ~signed:false in
        if target <> 0L then begin
          Mem.rc_dec m.mem target;
          Cost.op_rc m.cost
        end)
      (ptr_slots m addr size)

(* ------------------------------------------------------------------ *)
(* Allocation API used by builtins.                                   *)
(* ------------------------------------------------------------------ *)

let kmalloc m ~size : int =
  let zero = m.config.zero_alloc in
  let addr = m.alloc |> fun a -> Alloc.alloc a ~size ~zero in
  Cost.op_alloc m.cost ~bytes:size ~zero;
  addr

(* The actual free path, after any delayed-free scope has resolved.
   [drop] is false when a delayed-free scope already removed the
   object's outgoing references in its first phase. *)
let do_free ?(drop = true) m addr ~where =
  match Alloc.find_block m.alloc addr with
  | None -> Trap.trap Trap.Panic "kfree of non-heap address %d" addr
  | Some b ->
      if b.Alloc.state = Alloc.Freed then Trap.trap Trap.Double_free "double free at %d" addr;
      if m.config.rc_check then begin
        (* Outgoing refs die with the object. *)
        if drop then drop_outgoing_refs m addr b.Alloc.rsize;
        let residual = Mem.rc_sum m.mem addr b.Alloc.rsize in
        Cost.op_free m.cost ~bytes:b.Alloc.rsize ~rc_scan:true;
        if residual <> 0 then begin
          m.bad_frees <- { bf_addr = addr; bf_rc = residual; bf_where = where } :: m.bad_frees;
          if m.config.leak_on_bad_free then Alloc.leak m.alloc addr
          else begin
            Mem.rc_clear m.mem addr b.Alloc.rsize;
            ignore (Alloc.free m.alloc addr)
          end
        end
        else begin
          m.good_frees <- m.good_frees + 1;
          ignore (Alloc.free m.alloc addr)
        end
      end
      else begin
        Cost.op_free m.cost ~bytes:b.Alloc.rsize ~rc_scan:false;
        ignore (Alloc.free m.alloc addr)
      end;
      Hashtbl.remove m.rtti addr

let kfree m addr ~where =
  if addr <> 0 then begin
    match m.delayed_stack with
    | pending :: rest -> m.delayed_stack <- (addr :: pending) :: rest
    | [] -> do_free m addr ~where
  end

let delayed_scope_enter m = m.delayed_stack <- [] :: m.delayed_stack

let delayed_scope_exit m ~where =
  match m.delayed_stack with
  | [] -> invalid_arg "delayed_scope_exit without enter"
  | pending :: rest ->
      m.delayed_stack <- rest;
      let pending = List.rev pending in
      (match m.delayed_stack with
      | outer :: outer_rest ->
          (* Nested scope: fold into the enclosing scope. *)
          m.delayed_stack <- (List.rev_append pending outer) :: outer_rest
      | [] ->
          if m.config.rc_check then begin
            (* Two phases: first every pending object drops its
               outgoing references, then all the checks run. This is
               what lets cyclic structures torn down inside a scope
               check clean (paper §2.2, "delayed free scopes"). *)
            let seen = Hashtbl.create 8 in
            let uniq =
              List.filter
                (fun a ->
                  if Hashtbl.mem seen a then false
                  else begin
                    Hashtbl.add seen a ();
                    true
                  end)
                pending
            in
            List.iter
              (fun addr ->
                match Alloc.find_block m.alloc addr with
                | Some b when b.Alloc.state = Alloc.Live ->
                    drop_outgoing_refs m addr b.Alloc.rsize
                | _ -> ())
              uniq;
            List.iter (fun addr -> do_free ~drop:false m addr ~where) pending
          end
          else List.iter (fun addr -> do_free m addr ~where) pending)

(* ------------------------------------------------------------------ *)
(* Kernel execution state.                                            *)
(* ------------------------------------------------------------------ *)

let irq_disable m = m.irq_depth <- m.irq_depth + 1
let irq_enable m = if m.irq_depth > 0 then m.irq_depth <- m.irq_depth - 1

let spin_lock m lock_addr =
  irq_disable m;
  m.locks_held <- lock_addr :: m.locks_held

let spin_unlock m lock_addr =
  irq_enable m;
  m.locks_held <- List.filter (fun l -> l <> lock_addr) m.locks_held

(* A blocking primitive was reached. With interrupts disabled this is
   the ground-truth bug BlockStop exists to prevent. *)
let block_here m ~what =
  if atomic_context m then
    Trap.trap Trap.Blocking_in_atomic "%s called in atomic context (irq_depth=%d, in_irq=%b)"
      what m.irq_depth m.in_interrupt

let printk m s = m.console <- s :: m.console

let console_lines m = List.rev m.console

(* Free census for the CCount experiments (paper §2.2). *)
type free_census = { total_frees : int; good : int; bad : int; good_pct : float }

let free_census m =
  let bad = List.length m.bad_frees in
  let total = m.good_frees + bad in
  {
    total_frees = total;
    good = m.good_frees;
    bad;
    good_pct = (if total = 0 then 100.0 else 100.0 *. float_of_int m.good_frees /. float_of_int total);
  }
