(** Type checking and elaboration: surface AST -> typed IR.

    Elaboration hoists nested calls into temporaries, desugars
    compound assignment / increment / [for] loops, makes conversions
    and array decay explicit, and resolves dependent [__count]
    annotations (to variable references in function scope, to
    {!Ir.Eself_field} inside struct definitions). *)

exception Type_error of string * Loc.t

(** The parsed units of one program, each with the inputs its parse
    is a function of. *)
type parsed

(** Parse (name, source) pairs, threading typedef names through in
    order. With [prev], a unit whose name, source bytes and typedef
    names in scope all equal a unit of [prev] takes that unit's AST
    instead of being lexed and parsed again; the result is the same as
    without [prev]. *)
val parse_units : ?prev:parsed -> (string * string) list -> parsed

(** How many units [parse_units] lexed and parsed (the others were
    reused from [prev]). *)
val reparsed : parsed -> int

(** Check parsed units into one program. *)
val check_units : parsed -> Ir.program

(** [check_units (parse_units sources)]. *)
val check_sources : (string * string) list -> Ir.program
