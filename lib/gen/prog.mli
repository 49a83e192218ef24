(** Structured random programs.

    The generator never manipulates KC text directly: it builds this
    small typed skeleton, and [render] turns it into a self-contained
    KC compilation unit (its own extern header, only the globals the
    body actually uses).  Keeping the structure around — rather than
    just the text — is what makes fault injection (append a labelled
    block) and shrinking (delete list elements, re-render) trivial and
    type-preserving. *)

type block =
  | Arith of { iters : int; mul : int }  (** bounded loop of register arithmetic *)
  | Array_loop of { size : int }  (** stack array filled through a checked index *)
  | Heap of { slot : int }
      (** kzalloc(GFP_ATOMIC) → write → publish to gslot → retire → kfree *)
  | Lock_region of { locks : int list; addend : int }
      (** spinlocks acquired in ascending index order; straight-line body *)
  | Irq_region of { addend : int }  (** local_irq_disable/enable around arithmetic *)
  | Call of { callee : int }  (** direct call to a lower-numbered function (DAG) *)
  | Fptr_call of { table : int; pivot : int }  (** indirect call through a gops table *)
  | Err_call  (** call gerr_ and branch on its error result *)
  | User_copy  (** copy_from_user from the blessed user window *)
  | F_oob_const of { idx : int }  (** fault: constant index past a 4-long array *)
  | F_oob_dyn of { off : int }  (** fault: data-dependent index, provably >= 4 at runtime *)
  | F_oob_loop of { bound : int }
      (** fault: loop-carried index [i = 0; i <= bound; i++] into a
          4-long array with [bound >= 4] — the widening-sensitive shape:
          an unsound interval analysis that under-approximates the loop
          invariant would wrongly discharge the bound check *)
  | F_oob_cast of { delta : int }
      (** fault: a negative [signed char] index guarded by a
          mixed-width signed->unsigned cast comparison
          [(unsigned short)sc < 65535] that is always true at runtime —
          the cast-stripping-sensitive shape: an optimizer that
          attributes bounds proven about the (zero-extended) cast value
          to the pre-cast variable would wrongly discharge the
          lower-bound check on the negative index *)
  | F_oob_symbolic of { base : int }
      (** fault: a [__count(cn)] heap buffer with a clamped symbolic
          count and a loop bounded by [lim = cn - 1] — the
          relational-domain-sensitive shape: the in-loop upper-bound
          checks compare the index against the symbolic count and are
          dischargeable only through the [lim = cn - 1] zone relation,
          while the closing write at index [cn] can never pass its
          check, so a product domain that conflates the loop bound
          with the count itself would wrongly discharge it *)
  | F_dangling  (** fault: kfree while gslot_f still holds the reference *)
  | F_atomic_block  (** fault: msleep under local_irq_disable *)
  | F_lock_inversion of { lo : int; hi : int }  (** fault: lo->hi then hi->lo *)
  | F_unchecked_err  (** fault: gerr_ result discarded *)
  | F_user_deref  (** fault: direct *p on a __user pointer *)
  | F_ref_leak  (** fault: allocation with no kfree on any path (statically visible only) *)
  | F_double_put  (** fault: kfree twice — every run traps on the second free *)
  | F_put_on_error_path
      (** fault: kfree while gslot_e still holds the reference, retired too late *)

type op = { oid : int; omul : int }
(** Leaf callee for function-pointer tables; signature [long (int, int)]
    is distinct from every other function so type-based indirect-call
    resolution cannot manufacture cycles. *)

type table = { tid : int; ta : int; tb : int }
(** A gops table holding two ops. *)

type func = { fid : int; blocks : block list }
(** Regular function [long f<fid>_(int n)]; [main] calls every one. *)

type t = {
  seed : int;
  ops : op list;
  tables : table list;
  funcs : func list;
  faults : (Fault.kind * string) list;  (** ground truth: kind + host function name *)
}

val fname : int -> string
(** [fname fid] = ["f<fid>_"]. *)

val opname : int -> string
val fault_kind_of_block : block -> Fault.kind option

val render : t -> string
(** Emit a complete, self-contained KC source: extern mini-header,
    exactly the globals the blocks reference, op functions, tables,
    regular functions in index order, and a [main] driving them all. *)

val line_count : t -> int
(** Lines of the rendered source (the shrinker's size metric). *)
