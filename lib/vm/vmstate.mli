(** Shared interpreter state for both execution engines.

    Holds everything that is engine-independent: the program, the
    machine, global placement, interned strings, the builtin table,
    function-id resolution and the call-depth accounting. The
    {!Treewalk} reference evaluator and the {!Compile}d engine both
    operate over this record; {!Interp} re-exports it as the public
    interpreter type. *)

type t = {
  prog : Kc.Ir.program;
  m : Machine.t;
  globals_addr : (int, int) Hashtbl.t;  (** global vid -> address *)
  strings : (string, int) Hashtbl.t;
  mutable rodata_brk : int;
  mutable static_brk : int;
  mutable call_depth : int;
  mutable max_call_depth : int;
  builtins : (string, t -> int64 list -> int64) Hashtbl.t;
  fun_of_id : (int, Kc.Ir.fundec) Hashtbl.t;
  mutable run_fn : (t -> Kc.Ir.fundec -> int64 list -> int64) option;
      (** installed execution engine; [None] means the tree-walker *)
  mutable scratch : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t list;
      (** compiled-engine register-file pool (see {!Compile}) *)
}

val fptr_encode : int -> int64
val fptr_decode : int64 -> int option

(** Normalize a value to the width/sign of a type. *)
val norm : Kc.Ir.ty -> int64 -> int64

val is_signed : Kc.Ir.ty -> bool

(** Width in bytes of a scalar load/store of this type. *)
val width_of : Kc.Ir.program -> Kc.Ir.ty -> int

(** The static type of an lvalue; traps [Panic] on a deref of a
    non-pointer or an index of a non-array. *)
val lval_type : Kc.Ir.lval -> Kc.Ir.ty

(** Deterministic global placement: vid -> address table and the final
    static break. Pure function of the program (traps on a static
    region overflow), shared by {!create} and the compiled engine. *)
val global_layout : Kc.Ir.program -> (int, int) Hashtbl.t * int

(** Create the state: places and initializes globals. No engine is
    installed; builtins must be installed separately. *)
val create : Kc.Ir.program -> Machine.t -> t

(** Intern a string literal in rodata, returning its address. *)
val intern_string : t -> string -> int

(** Read a null-terminated string out of VM memory. *)
val read_string : t -> int64 -> string

val register_builtin : t -> string -> (t -> int64 list -> int64) -> unit
