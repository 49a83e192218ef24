(** Memory layout of KC types (LP64-ish: char 1, short 2, int 4,
    long 8, pointer 8; natural alignment). *)

exception Layout_error of string

val ptr_size : int
val int_size : Ast.ikind -> int
val size_of : Ir.program -> Ir.ty -> int
val align_of : Ir.program -> Ir.ty -> int
val round_up : int -> int -> int
val comp_size : Ir.program -> Ir.compinfo -> int

(** Byte offset of a field within its struct (0 for union members). *)
val field_offset : Ir.program -> Ir.fieldinfo -> int

(** Size of the pointed-to / element type of a pointer or array. *)
val elem_size : Ir.program -> Ir.ty -> int

(** A function's frame: each formal, then each local, in declaration
    order, with its byte offset if it lives in memory (address taken,
    struct or array) or [None] if it lives in a register; and the byte
    count of the memory slots, unrounded. Both VM engines and
    stackcheck lay frames out with this one function. *)
val frame : Ir.program -> Ir.fundec -> (Ir.varinfo * int option) list * int
