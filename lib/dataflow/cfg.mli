(** Control-flow graphs over the structured KC IR (no goto, so one
    recursive pass builds them). Node [entry] starts the function; a
    single synthetic [exit_] node receives every return. *)

type terminator =
  | Tjump  (** single successor *)
  | Tcond of Kc.Ir.exp  (** successors: then, else *)
  | Tswitch of Kc.Ir.exp  (** successors in case order, then default/join *)
  | Treturn of Kc.Ir.exp option

type node = {
  nid : int;
  mutable instrs : (Kc.Ir.instr * Kc.Loc.t) list;
  mutable term : terminator;
  mutable succs : int list;
  mutable preds : int list;
}

type t = {
  fname : string;
  mutable nodes : node array;
  entry : int;
  exit_ : int;
}

val build : Kc.Ir.fundec -> t
val n_nodes : t -> int
val node : t -> int -> node

(** Reachable nodes in reverse-postorder. *)
val reverse_postorder : t -> int list

val reachable : t -> bool array
