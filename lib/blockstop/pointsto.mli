(** Points-to analysis for function pointers, at the paper's two
    precision levels:

    - {!Type_based}: the paper's "simple points-to analysis" — a
      pointer may target any address-taken function with a matching
      erased signature. Sound but the source of BlockStop's false
      positives.
    - {!Field_based}: the field-sensitive improvement the paper
      proposes — a pointer loaded from struct field (tag, f) may only
      target functions actually stored into that field. *)

module SS : Set.S with type elt = string and type t = Set.Make(String).t

type mode = Type_based | Field_based

type t = {
  prog : Kc.Ir.program;
  mode : mode;
  address_taken : SS.t;
  by_field : (string * string, SS.t) Hashtbl.t;
  var_fields : (int, (string * string) list) Hashtbl.t;
      (** local fptr var -> fields that flowed into it *)
  var_funs : (int, SS.t) Hashtbl.t;  (** local fptr var -> direct functions *)
  var_poisoned : (int, unit) Hashtbl.t;  (** untrackable values flowed in *)
}

val build : ?mode:mode -> Kc.Ir.program -> t

(** Possible targets of an indirect call through the given function
    pointer expression. *)
val targets : t -> Kc.Ir.exp -> SS.t
