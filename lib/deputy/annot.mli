(** Deputy's view of pointer types and expression utilities shared by
    check generation and discharge. *)

(** Classification of a pointer from its annotations. *)
type classification =
  | Safe  (** unannotated: one valid element, never null *)
  | Counted of Kc.Ir.exp  (** valid for that many elements *)
  | Nullterm of Kc.Ir.exp  (** that many elements plus a terminator *)
  | Trusted  (** the checker must not reason about it *)

val classify : Kc.Ir.annots -> classification
val classify_ty : Kc.Ir.ty -> classification option
val is_opt_ty : Kc.Ir.ty -> bool

(** Instantiate [Eself_field] occurrences against a concrete struct
    base lvalue. *)
val subst_self : Kc.Ir.lval -> Kc.Ir.exp -> Kc.Ir.exp

val mentions_self : Kc.Ir.exp -> bool

(** Substitute callee formals (by vid) with actual argument
    expressions inside a dependent count. *)
val subst_formals : (int * Kc.Ir.exp) list -> Kc.Ir.exp -> Kc.Ir.exp

val only_mentions_formals : Kc.Ir.varinfo list -> Kc.Ir.exp -> bool

(** Strip value-preserving integer widening casts. *)
val strip_widening : Kc.Ir.exp -> Kc.Ir.exp

(** Constant folding through casts (the elaborator wraps literals in
    conversion casts). *)
val const_fold : Kc.Ir.exp -> int64 option

(** Decompose a pointer expression into (base, element index),
    flattening pointer arithmetic. *)
val split_base : Kc.Ir.exp -> Kc.Ir.exp * Kc.Ir.exp

(** Syntactic equality (the IR keeps no locations on expressions). *)
val exp_equal : Kc.Ir.exp -> Kc.Ir.exp -> bool

val lval_equal : Kc.Ir.lval -> Kc.Ir.lval -> bool

(** Number of annotations carried by a type (for the E1 census). *)
val count_annotations : Kc.Ir.ty -> int
