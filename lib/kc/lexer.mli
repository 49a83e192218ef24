(** Hand-written lexer for KC: one pass over a whole source string.
    Line comments, block comments and [#]-prefixed lines are skipped.
    Tokens are stored in chunks of 256, with their positions packed
    in parallel chunks; {!loc} builds a token's [Loc.t] on demand. *)

exception Error of string * Loc.t

(** The tokens of one source, numbered from [0] to [length - 1]; the
    last is always {!Token.EOF}. *)
type t

val tokenize : file:string -> string -> t
val length : t -> int

(** Token [i]. *)
val token : t -> int -> Token.t

(** The location of token [i]. *)
val loc : t -> int -> Loc.t
