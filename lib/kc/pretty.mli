(** Pretty-printing of the typed IR back to KC source.

    [print_program ~erase:true] demonstrates the paper's *erasure
    semantics*: annotations and analysis-inserted constructs strip
    away, leaving a plain KC program that compiles and behaves
    identically (see examples/erasure_demo.ml). *)

(** Print a whole program: struct definitions, function declarations,
    globals with initializers, then function definitions. The output
    re-parses with {!Typecheck.check_sources}. *)
val print_program : ?erase:bool -> Ir.program -> string

(** A table's bindings in name order: Hashtbl iteration order depends
    on insertion history and the OCaml version, so code whose output
    must be byte-stable visits tables through this. *)
val sorted_bindings : (string, 'a) Hashtbl.t -> (string * 'a) list

(** One-off rendering helpers for diagnostics and tests. *)

val exp_to_string : Ir.exp -> string
val lval_to_string : Ir.lval -> string
