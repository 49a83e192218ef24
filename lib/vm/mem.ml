(* Flat byte-addressed memory with validity tracking and the CCount
   shadow reference counts.

   Layout (addresses are plain ints; address 0 is the null page):

     0        .. 4095           unmapped (null page)
     4096     .. rodata_end     string literals (read-only data)
     rodata_end .. globals_end  globals
     HEAP_BASE ..               kernel heap (refcounted)
     STACK_BASE ..              interpreter stacks (not refcounted,
                                cf. paper footnote 2: local variables
                                are not tracked)

   Every byte has a validity bit; access to an invalid byte traps like
   a page fault. Out-of-bounds accesses that land in *valid* memory
   are silent corruption, exactly as on real hardware — that is the
   failure mode Deputy's checks are designed to turn into clean traps.

   The shadow array keeps one 8-bit counter per 16-byte chunk (6.25%
   space overhead, as in the paper). Counters saturate modulo 256:
   "bad frees of objects with k*256 references will be missed".

   The three planes (data, validity, rc) are private demand-zero
   mappings of /dev/zero, not OCaml heap: [create] maps ~47 MB of
   address space and the kernel hands out a zero page on first touch,
   so a machine costs the pages its program touches. The mappings are
   released when the GC finalises the plane; there is no release call,
   and [create] forces a collection when boots outrun the major GC.

   Plane accesses go through the typed bigstring primitives below,
   which compile to inline loads and stores. Bigarray's generic
   [unsafe_get]/[unsafe_set] are used only at the concrete [plane]
   type; at an unknown element kind they become a C call per access.
   The unchecked accesses run only after a range test: the load/store
   fast paths, [set_valid] behind [in_range], the bulk operations
   behind [check_access]. The rc accessors take arbitrary addresses
   and stay bounds-checked. *)

let null_page_end = 4096
let rodata_base = 4096
let rodata_size = 1 lsl 20
let static_base = rodata_base + rodata_size
let static_size = 1 lsl 20
let heap_base = static_base + static_size
let heap_size = 1 lsl 24 (* 16 MiB heap *)
let stack_base = heap_base + heap_size
let stack_size = 1 lsl 22 (* 4 MiB of interpreter stacks *)
let total_size = stack_base + stack_size

let chunk_shift = 4 (* 16-byte chunks *)

type plane = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  bytes : plane;
  valid : plane; (* 1 byte per address: crude but simple *)
  rc : plane; (* 1 byte per 16-byte chunk *)
  mutable rc_enabled : bool;
  (* "Bad frees of objects with k*256 references will be missed ...
     For total safety, an overflow check could be used." This is that
     check: trap instead of wrapping. *)
  mutable rc_overflow_trap : bool;
}

(* Unchecked native-endian plane access. *)
external get16u : plane -> int -> int = "%caml_bigstring_get16u"
external get32u : plane -> int -> int32 = "%caml_bigstring_get32u"
external get64u : plane -> int -> int64 = "%caml_bigstring_get64u"
external set16u : plane -> int -> int -> unit = "%caml_bigstring_set16u"
external set32u : plane -> int -> int32 -> unit = "%caml_bigstring_set32u"
external set64u : plane -> int -> int64 -> unit = "%caml_bigstring_set64u"
external big_endian : unit -> bool = "%big_endian"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get8 (p : plane) i = Char.code (Bigarray.Array1.unsafe_get p i)
let[@inline] set8 (p : plane) i v = Bigarray.Array1.unsafe_set p i (Char.unsafe_chr v)

(* Little-endian data access, as the VM's memory is little-endian. *)
let[@inline] get16le p i = if big_endian () then bswap16 (get16u p i) else get16u p i
let[@inline] get32le p i = if big_endian () then bswap32 (get32u p i) else get32u p i
let[@inline] get64le p i = if big_endian () then bswap64 (get64u p i) else get64u p i
let[@inline] set16le p i v = set16u p i (if big_endian () then bswap16 v else v)
let[@inline] set32le p i v = set32u p i (if big_endian () then bswap32 v else v)
let[@inline] set64le p i v = set64u p i (if big_endian () then bswap64 v else v)

let[@inline] sext bits v = (v lsl (Sys.int_size - bits)) asr (Sys.int_size - bits)

(* Validity words: the plane keeps a 0/1 byte per address, so a
   width-wide read equals these exactly when every byte is mapped. *)
let mapped8 = 0x0101010101010101L
let mapped4 = 0x01010101l
let mapped2 = 0x0101

let map_plane fd size : plane =
  Bigarray.array1_of_genarray (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |])

(* The GC sees a few words per plane, not the mapping behind it, so
   no heap pressure hurries it to unmap a dead machine's planes: a loop
   that boots machines but allocates little would pile up address
   space and map entries (the kernel caps a process at ~65k). When
   [reclaim_every] boots go by inside one major cycle, [create] runs
   a full major collection, which unmaps every dead plane. *)
let reclaim_every = 64
let boots_in_cycle = Atomic.make 0
let cycle_seen = Atomic.make 0

let reclaim_dead_planes () =
  let cycle = (Gc.quick_stat ()).Gc.major_collections in
  if Atomic.exchange cycle_seen cycle <> cycle then Atomic.set boots_in_cycle 0;
  if Atomic.fetch_and_add boots_in_cycle 1 >= reclaim_every then Gc.full_major ()

let create () =
  reclaim_dead_planes ();
  let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      {
        bytes = map_plane fd total_size;
        valid = map_plane fd total_size;
        rc = map_plane fd (total_size lsr chunk_shift);
        rc_enabled = false;
        rc_overflow_trap = false;
      })

(* Unchecked word-wide fill and memmove; callers range-check first. *)
let fill (p : plane) addr len c =
  let w = Int64.mul mapped8 (Int64.of_int c) in
  let stop = addr + len and i = ref addr in
  while !i <= stop - 8 do
    set64u p !i w;
    i := !i + 8
  done;
  while !i < stop do
    set8 p !i c;
    incr i
  done

let move (p : plane) ~src ~dst len =
  if dst <= src then begin
    (* Forward: each write lands below every byte still to be read. *)
    let i = ref 0 in
    while !i <= len - 8 do
      set64u p (dst + !i) (get64u p (src + !i));
      i := !i + 8
    done;
    while !i < len do
      set8 p (dst + !i) (get8 p (src + !i));
      incr i
    done
  end
  else begin
    (* Backward: each write lands above every byte still to be read. *)
    let n = ref len in
    while !n >= 8 do
      n := !n - 8;
      set64u p (dst + !n) (get64u p (src + !n))
    done;
    while !n > 0 do
      decr n;
      set8 p (dst + !n) (get8 p (src + !n))
    done
  end

(* Written so that no sum can wrap: [addr + len] may exceed max_int. *)
let in_range addr len = addr >= 0 && len >= 0 && addr <= total_size - len

let set_valid t addr len v =
  if not (in_range addr len) then Trap.trap Trap.Wild_access "map %d+%d out of range" addr len;
  fill t.valid addr len (if v then 1 else 0)

let is_valid t addr len =
  in_range addr len
  &&
  let stop = addr + len and i = ref addr and ok = ref true in
  while !ok && !i <= stop - 8 do
    ok := get64u t.valid !i = mapped8;
    i := !i + 8
  done;
  while !ok && !i < stop do
    ok := get8 t.valid !i = 1;
    incr i
  done;
  !ok

let check_access t addr len what =
  if addr >= 0 && addr < null_page_end then
    Trap.trap Trap.Wild_access "null-page %s at address %d" what addr;
  if not (is_valid t addr len) then
    Trap.trap Trap.Wild_access "%s of %d bytes at unmapped address %d" what len addr

(* Little-endian load/store of 1/2/4/8 bytes.

   The hot paths test the validity plane with one word-wide read and
   then move the data with a single unaligned access. Anything else
   (null page, edge of the address space, a hole in the middle of the
   span, odd widths) falls back to the byte loop behind check_access,
   which raises the exact trap the fast path skipped. The range test
   is [addr <= total_size - width] so a wild address near max_int
   cannot wrap into an unchecked access. *)
let load_slow t ~addr ~width ~signed : int64 =
  check_access t addr width "load";
  let v = ref 0L in
  for i = width - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get8 t.bytes (addr + i)))
  done;
  if signed && width < 8 then begin
    let shift = 64 - (8 * width) in
    Int64.shift_right (Int64.shift_left !v shift) shift
  end
  else !v

let[@inline] load t ~addr ~width ~signed : int64 =
  if addr >= null_page_end && addr <= total_size - width then
    match width with
    | 8 when get64u t.valid addr = mapped8 -> get64le t.bytes addr
    | 4 when get32u t.valid addr = mapped4 ->
        let v = Int64.of_int32 (get32le t.bytes addr) in
        if signed then v else Int64.logand v 0xFFFFFFFFL
    | 2 when get16u t.valid addr = mapped2 ->
        let v = get16le t.bytes addr in
        Int64.of_int (if signed then sext 16 v else v)
    | 1 when get8 t.valid addr = 1 ->
        let v = get8 t.bytes addr in
        Int64.of_int (if signed then sext 8 v else v)
    | _ -> load_slow t ~addr ~width ~signed
  else load_slow t ~addr ~width ~signed

let store_slow t ~addr ~width (v : int64) =
  check_access t addr width "store";
  let x = ref v in
  for i = 0 to width - 1 do
    set8 t.bytes (addr + i) (Int64.to_int (Int64.logand !x 0xFFL));
    x := Int64.shift_right_logical !x 8
  done

let[@inline] store t ~addr ~width (v : int64) =
  if addr >= null_page_end && addr <= total_size - width then
    match width with
    | 8 when get64u t.valid addr = mapped8 -> set64le t.bytes addr v
    | 4 when get32u t.valid addr = mapped4 -> set32le t.bytes addr (Int64.to_int32 v)
    | 2 when get16u t.valid addr = mapped2 -> set16le t.bytes addr (Int64.to_int v land 0xFFFF)
    | 1 when get8 t.valid addr = 1 -> set8 t.bytes addr (Int64.to_int v land 0xFF)
    | _ -> store_slow t ~addr ~width v
  else store_slow t ~addr ~width v

(* Word-wide validity probe and raw blit for the compiled engine's
   fused copy: [valid_fast] is exactly the fast-path guard of
   [load]/[store] (bounds + all-ones validity word); [blit_raw] moves
   bytes with no checks and must only run after both probes pass. A
   same-width load/store round trip writes exactly the source bytes —
   normalization only changes bits the store drops — so the blit is
   the load/store pair, minus the boxing. *)
let[@inline] valid_fast t addr width =
  addr >= null_page_end
  && addr <= total_size - width
  &&
  match width with
  | 8 -> get64u t.valid addr = mapped8
  | 4 -> get32u t.valid addr = mapped4
  | 2 -> get16u t.valid addr = mapped2
  | 1 -> get8 t.valid addr = 1
  | _ -> false

let[@inline] blit_raw t ~src ~dst ~width =
  match width with
  | 8 -> set64u t.bytes dst (get64u t.bytes src)
  | 4 -> set32u t.bytes dst (get32u t.bytes src)
  | 2 -> set16u t.bytes dst (get16u t.bytes src)
  | 1 -> set8 t.bytes dst (get8 t.bytes src)
  | _ -> move t.bytes ~src ~dst width

(* Raw block operations used by the allocator and memcpy/memset. *)
let blit_zero t addr len =
  check_access t addr len "memset";
  fill t.bytes addr len 0

let blit_byte t addr len c =
  check_access t addr len "memset";
  fill t.bytes addr len (c land 0xFF)

let blit_copy t ~src ~dst len =
  check_access t src len "memcpy-src";
  check_access t dst len "memcpy-dst";
  move t.bytes ~src ~dst len

let blit_string t addr s =
  check_access t addr (String.length s) "intern";
  for i = 0 to String.length s - 1 do
    set8 t.bytes (addr + i) (Char.code (String.unsafe_get s i))
  done

(* ------------------------------------------------------------------ *)
(* Shadow reference counts.                                           *)
(* ------------------------------------------------------------------ *)

let refcounted addr = addr >= heap_base && addr < heap_base + heap_size

let chunk_of addr = addr lsr chunk_shift

let rc_get t addr = Char.code (Bigarray.Array1.get t.rc (chunk_of addr))

let rc_set t addr v = Bigarray.Array1.set t.rc (chunk_of addr) (Char.chr (v land 0xFF))

(* Increment the refcount of the chunk containing [target]; wraps at
   256 as in the paper's 8-bit counters. *)
let rc_inc t (target : int64) =
  if t.rc_enabled then begin
    let addr = Int64.to_int target in
    if refcounted addr then begin
      let cur = rc_get t addr in
      if cur = 255 && t.rc_overflow_trap then
        Trap.trap Trap.Rc_overflow "refcount overflow on chunk of address %d" addr;
      rc_set t addr (cur + 1)
    end
  end

let rc_dec t (target : int64) =
  if t.rc_enabled then begin
    let addr = Int64.to_int target in
    if refcounted addr then rc_set t addr (rc_get t addr - 1)
  end

(* Sum of refcounts over an object, for the free-time check. *)
let rc_sum t addr len =
  let first = chunk_of addr and last = chunk_of (addr + len - 1) in
  let s = ref 0 in
  for c = first to last do
    s := !s + Char.code (Bigarray.Array1.get t.rc c)
  done;
  !s

let rc_clear t addr len =
  let first = chunk_of addr and last = chunk_of (addr + len - 1) in
  for c = first to last do
    Bigarray.Array1.set t.rc c '\000'
  done
