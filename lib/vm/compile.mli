(** Pre-compiled execution engine.

    Compiles IR functions into a flat, pre-resolved form — basic
    blocks of instruction closures, variable ids resolved to dense
    register/stack slots, global addresses and field offsets constant
    folded, callees resolved to direct references — and executes that
    with an int-indexed block dispatch loop. The compiler collapses
    jump chains and merges single-predecessor blocks. It then
    describes sets and bounds/null checks as flat micro-ops: a block
    made only of those compiles to one closure (a tight loop spins
    inside it), and elsewhere each one runs as a single micro-op
    step. Compares fuse into branch terminators. Its output depends
    only on the program, never on a collected profile.

    Strictly observationally equivalent to {!Treewalk}: identical trap
    kinds and messages, results, cycle counts, fuel burns, rodata
    interning order and stack addresses (both engines lay frames out
    with {!Kc.Layout.frame}). Only wall-clock time differs.
    The differential suite holds the fused code to the tree-walker.

    Compiled programs are cached per [Kc.Ir.program] (physical
    identity, weakly keyed) and revalidated per function against
    [fbody] identity, so in-place instrumentation passes transparently
    invalidate stale code. *)

type t
(** A compiled program: per-function executable code plus the baked
    global layout. *)

val of_program : Kc.Ir.program -> t
(** The compiled form of a program, memoized per program (physical
    identity, thread-safe, weakly keyed). Functions compile lazily on
    first call. *)

val install : Vmstate.t -> unit
(** Route the state's calls through the compiled engine. *)

val call : t -> Vmstate.t -> Kc.Ir.fundec -> int64 list -> int64
(** Call a function through the compiled engine. Extern fundecs
    dispatch to the builtin table by name, as in {!Treewalk}. *)

val compilations : t -> int
(** Total function compilations performed (recompiles included). *)

(** {2 Compile-time site counters}

    Counters live in per-domain tables merged on read, so parallel
    fuzz/check runs count exactly. *)

val opt_stats : unit -> (string * int) list
(** Compile-time site counters, each site counted once:
    [fuse:block] blocks compiled to one closure and [fuse:block-loop]
    those that spin in place; [spec:uop] instructions run as a
    standalone micro-op; [spec:cmp-branch], [spec:alu] and
    [spec:addr] specialized compares, ALU expressions and addresses;
    [peep:*] peephole rewrites applied. Sorted by count descending. *)

val render_opt_stats : unit -> string
(** The stats table formatted for display; [""] when all zero. *)

val reset_opt_stats : unit -> unit
