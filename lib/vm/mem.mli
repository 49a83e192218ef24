(** Flat byte-addressed memory with validity tracking and the CCount
    shadow reference counts (one 8-bit counter per 16-byte chunk,
    6.25% space overhead as in the paper).

    Every byte has a validity bit: access to an invalid byte traps
    like a page fault, while out-of-bounds accesses that land in
    *valid* memory corrupt silently, exactly as on hardware — the
    failure mode Deputy's checks turn into clean traps.

    The planes are private demand-zero mappings: {!create} reserves
    the whole address space, but a machine's resident cost is the pages
    its program touches. The mappings are released when the GC
    finalises them; there is no release call. *)

(** Region layout (addresses are plain ints; 0 is the null page). *)

val null_page_end : int
val rodata_base : int
val rodata_size : int
val static_base : int
val static_size : int
val heap_base : int
val heap_size : int
val stack_base : int
val stack_size : int
val total_size : int

type plane = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  bytes : plane;
  valid : plane;  (** one 0/1 byte per address *)
  rc : plane;  (** one byte per 16-byte chunk *)
  mutable rc_enabled : bool;
  mutable rc_overflow_trap : bool;
      (** trap instead of wrapping at 256 (the paper's "for total
          safety, an overflow check could be used") *)
}

(** Fresh, all-zero, all-unmapped memory. The GC cannot see the size
    of the planes, so when 64 boots go by inside one major cycle this
    runs a full major collection to unmap the planes of dead machines. *)
val create : unit -> t

(** Mark [len] bytes from [addr] (in)valid; a span that is not wholly
    inside the address space traps with [Wild_access]. *)
val set_valid : t -> int -> int -> bool -> unit

val is_valid : t -> int -> int -> bool

(** Little-endian load of 1/2/4/8 bytes, sign- or zero-extended. *)
val load : t -> addr:int -> width:int -> signed:bool -> int64

val store : t -> addr:int -> width:int -> int64 -> unit

(** True when a [width]-wide access at [addr] takes the fast path of
    [load]/[store]: in bounds, off the null page, every byte mapped.
    When false the access may still succeed on the slow path. *)
val valid_fast : t -> int -> int -> bool

(** Unchecked byte move; only sound after [valid_fast] passed for both
    the source and the destination span. *)
val blit_raw : t -> src:int -> dst:int -> width:int -> unit

(** Bulk operations (validity-checked). *)

val blit_zero : t -> int -> int -> unit
val blit_byte : t -> int -> int -> int -> unit
val blit_copy : t -> src:int -> dst:int -> int -> unit
val blit_string : t -> int -> string -> unit

(** Shadow reference counts. Counters wrap modulo 256 ("bad frees of
    objects with k*256 references will be missed"); only heap
    addresses are refcounted, so references *from* anywhere count but
    stack-resident locals are never targets. *)

val refcounted : int -> bool
val rc_get : t -> int -> int
val rc_set : t -> int -> int -> unit

(** Increment/decrement the counter of the chunk containing the
    target address; no-ops when disabled or out of the heap. *)
val rc_inc : t -> int64 -> unit

val rc_dec : t -> int64 -> unit

(** Sum of counters over an object, for the free-time check. *)
val rc_sum : t -> int -> int -> int

val rc_clear : t -> int -> int -> unit
