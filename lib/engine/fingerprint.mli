(** Content hashing of KC IR for the artifact graph.

    Digests are deterministic across re-parses of the same source
    (names, never [vid]/[fid] counters) and include statement
    locations, so a cached artifact is never reused to report stale
    line numbers. See fingerprint.ml for the exact serialization. *)

module Names : Map.S with type key = string

(** All the digests of one program, computed once per (re)load. *)
type table = {
  t_header : string;  (** structs, enums, globals with initializers *)
  t_fns : (string * string) list;  (** per defined function, program order *)
  t_index : string Names.t;  (** [t_fns] keyed by function name *)
  t_program : string;
      (** header + every function: the input hash of every
          whole-program artifact *)
}

val fn : Kc.Ir.fundec -> string
(** Digest of one function: header, annotations, signature, body with
    statement locations. *)

val header : Kc.Ir.program -> string

val table_of : Kc.Ir.program -> table
(** Every digest of the program, serialized through one buffer local
    to the call. *)

val find : table -> string -> string option
(** The digest of a defined function, by name. *)

type diff = {
  d_changed : string list;
  d_added : string list;
  d_removed : string list;
  d_header_changed : bool;
}

val diff : old:table -> table -> diff
val unchanged : old:table -> table -> bool
