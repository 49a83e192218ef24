(** User/kernel pointer checking (paper §3.1's "further examples"):
    a [__user] pointer addresses user space — it must never be
    dereferenced directly (only copy_to_user / copy_from_user touch
    user memory), and user-ness must not be laundered across
    assignments, arguments or returns except inside [__trusted]
    regions (the syscall entry shim). *)

type kind =
  | Deref  (** direct dereference of a __user pointer *)
  | User_to_kernel  (** __user value into a kernel slot/argument *)
  | Kernel_to_user  (** kernel value into a __user slot/argument *)

type violation = { v_fn : string; v_loc : Kc.Loc.t; v_kind : kind; v_what : string }

type report = {
  violations : violation list;
  user_params : int;
  derefs_checked : int;
  flows_checked : int;
}

val is_user_ty : Kc.Ir.ty -> bool
val analyze : Kc.Ir.program -> report
val kind_to_string : kind -> string
