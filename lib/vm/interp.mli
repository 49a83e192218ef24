(** The IR interpreter over {!Machine}.

    Scalars are [int64], normalized to the width/sign of their type;
    pointers are flat addresses; function pointers are encoded as
    negative sentinels. Locals that are scalar and never address-taken
    live in register slots — free to access and invisible to CCount
    (the paper's footnote 2); everything else lives on the VM stack.
    Every executed operation charges the cost model, so cycle counts
    are a deterministic function of the executed path.

    Two engines implement these semantics: {!Treewalk}, the structural
    reference evaluator, and {!Compile}, which pre-compiles each
    function once to flat basic blocks with resolved slots and runs
    ~an order of magnitude faster. They are strictly observationally
    equivalent (same traps, results, cycle counts); the compiled
    engine is the default. *)

type t = Vmstate.t = {
  prog : Kc.Ir.program;
  m : Machine.t;
  globals_addr : (int, int) Hashtbl.t;
  strings : (string, int) Hashtbl.t;
  mutable rodata_brk : int;
  mutable static_brk : int;
  mutable call_depth : int;
  mutable max_call_depth : int;
  builtins : (string, t -> int64 list -> int64) Hashtbl.t;
  fun_of_id : (int, Kc.Ir.fundec) Hashtbl.t;
  mutable run_fn : (t -> Kc.Ir.fundec -> int64 list -> int64) option;
      (** installed execution engine; [None] = tree-walk reference *)
  mutable scratch : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t list;
      (** compiled-engine register-file pool *)
}

(** Which execution engine to install at {!create} time; the compiled
    engine unless [~engine:Tree] asks for the reference evaluator. *)
type engine = Tree | Compiled

(** Function-pointer encoding. *)

val fptr_encode : int -> int64
val fptr_decode : int64 -> int option

(** Normalize a value to the width/sign of a type. *)
val norm : Kc.Ir.ty -> int64 -> int64

(** Create an interpreter: places and initializes globals, interns
    nothing else until needed, and installs the execution engine.
    Builtins must be installed separately (see {!Builtins.install} /
    {!Builtins.boot}). *)
val create : ?engine:engine -> Kc.Ir.program -> Machine.t -> t

(** Intern a string literal in rodata, returning its address. *)
val intern_string : t -> string -> int

(** Call a defined function (by fundec) with arguments, through the
    installed engine. *)
val call_function : t -> Kc.Ir.fundec -> int64 list -> int64

(** Read a null-terminated string out of VM memory. *)
val read_string : t -> int64 -> string

(** Run a defined function by name. *)
val run : t -> string -> int64 list -> int64

val register_builtin : t -> string -> (t -> int64 list -> int64) -> unit
