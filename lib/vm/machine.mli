(** Machine state: memory + allocator + cost accounting + kernel-ish
    execution state (interrupt depth, locks, interrupt context), plus
    the CCount runtime (RTTI, delayed-free scopes, the free census).
    The machine knows nothing about the IR; the interpreter and the
    builtin kernel API drive it. *)

type bad_free = {
  bf_addr : int;
  bf_rc : int;  (** residual refcount sum at free time *)
  bf_where : string;
}

type config = {
  rc_check : bool;  (** CCount shadow counters active *)
  zero_alloc : bool;  (** zero allocated storage (CCount requires it) *)
  leak_on_bad_free : bool;  (** soundness-preserving leak *)
  rc_overflow_check : bool;  (** trap on 8-bit counter overflow *)
  profile : Cost.profile;
  fuel : int;  (** interpreter step budget *)
}

val default_config : config

type t = {
  mem : Mem.t;
  alloc : Alloc.t;
  cost : Cost.t;
  config : config;
  mutable irq_depth : int;
  mutable in_interrupt : bool;
  mutable locks_held : int list;
  mutable fuel_left : int;
  mutable sp : int;
  irq_handlers : (int, int64) Hashtbl.t;
  rtti : (int, int) Hashtbl.t;
  type_ptr_offsets : (int, int list) Hashtbl.t;
  type_sizes : (int, int) Hashtbl.t;
  mutable delayed_stack : int list list;
  mutable good_frees : int;
  mutable bad_frees : bad_free list;
  mutable console : string list;
  mutable panic_log : string list;
}

val create : ?config:config -> unit -> t

(** Interrupts disabled or in interrupt context. *)
val atomic_context : t -> bool

(** Spend one step of fuel; traps on exhaustion. *)
val burn_fuel : t -> unit

(** {2 Interpreter stack frames} *)

val push_frame : t -> int -> int
val pop_frame : t -> int -> unit

(** {2 CCount runtime} *)

(** Register a type's size and pointer-slot offsets. *)
val register_type : t -> type_id:int -> size:int -> ptr_offsets:int list -> unit

(** Record that the object at [addr] has the given type. *)
val set_obj_type : t -> addr:int -> type_id:int -> unit

(** Pointer-slot offsets of the object at [addr], per its RTTI. *)
val ptr_slots : t -> int -> int -> int list

(** Decrement the counts of everything the object points to (used
    when it is freed or cleared). *)
val drop_outgoing_refs : t -> int -> int -> unit

(** {2 Allocation API} *)

val kmalloc : t -> size:int -> int

(** Free (or, inside a delayed scope, enqueue). With [rc_check], a
    nonzero residual count is a bad free: logged, and the object is
    leaked when [leak_on_bad_free]. *)
val kfree : t -> int -> where:string -> unit

val do_free : ?drop:bool -> t -> int -> where:string -> unit
val delayed_scope_enter : t -> unit
val delayed_scope_exit : t -> where:string -> unit

(** {2 Kernel execution state} *)

val irq_disable : t -> unit
val irq_enable : t -> unit
val spin_lock : t -> int -> unit
val spin_unlock : t -> int -> unit

(** A blocking primitive was reached: traps if the context is atomic
    (the ground truth BlockStop exists to protect). *)
val block_here : t -> what:string -> unit

val printk : t -> string -> unit
val console_lines : t -> string list

(** {2 Free census (paper §2.2)} *)

type free_census = { total_frees : int; good : int; bad : int; good_pct : float }

val free_census : t -> free_census
