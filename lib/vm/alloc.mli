(** Kernel heap allocator: a bump allocator with per-size free lists
    over the refcounted heap region. Objects are 16-byte-chunk
    aligned, so two objects never share a shadow-counter chunk. *)

type block_state = Live | Freed

type block = {
  addr : int;
  size : int;  (** requested *)
  rsize : int;  (** reserved (rounded) *)
  mutable state : block_state;
}

type t = {
  mem : Mem.t;
  mutable brk : int;
  free_lists : (int, int list ref) Hashtbl.t;
  blocks : (int, block) Hashtbl.t;
  mutable live_bytes : int;
  mutable total_allocs : int;
  mutable total_frees : int;
}

val create : Mem.t -> t
val round16 : int -> int

(** Allocate; marks the storage valid and optionally zeroes it. *)
val alloc : t -> size:int -> zero:bool -> int

val find_block : t -> int -> block option

(** Release; traps on double free or non-block addresses. *)
val free : t -> int -> block

(** Mark freed but keep the storage valid: CCount's sound response to
    a bad free. *)
val leak : t -> int -> unit

(** Page-aligned allocation of [pages] 4 kB pages. *)
val pages_alloc : t -> pages:int -> int
