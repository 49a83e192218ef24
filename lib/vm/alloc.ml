(* Kernel heap allocator: kmalloc/kfree, slab caches, page allocation.

   A bump allocator with per-size free lists over the refcounted heap
   region of {!Mem}. Object granularity is the 16-byte chunk so that
   the CCount shadow counters of two objects never share a chunk. *)

type block_state = Live | Freed

type block = {
  addr : int;
  size : int; (* requested size *)
  rsize : int; (* rounded size actually reserved *)
  mutable state : block_state;
}

type t = {
  mem : Mem.t;
  mutable brk : int; (* bump pointer *)
  free_lists : (int, int list ref) Hashtbl.t; (* rounded size -> addrs *)
  blocks : (int, block) Hashtbl.t; (* addr -> block *)
  mutable live_bytes : int;
  mutable total_allocs : int;
  mutable total_frees : int;
}

let create mem =
  {
    mem;
    brk = Mem.heap_base;
    free_lists = Hashtbl.create 32;
    blocks = Hashtbl.create 1024;
    live_bytes = 0;
    total_allocs = 0;
    total_frees = 0;
  }

let round16 n = max 16 ((n + 15) / 16 * 16)

let free_list t size =
  match Hashtbl.find_opt t.free_lists size with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace t.free_lists size l;
      l

(* Allocate [size] bytes; returns the address. [zero] clears the
   storage (CCount requires this so that stale bytes are never
   interpreted as references). *)
let alloc t ~size ~zero : int =
  if size <= 0 then Trap.trap Trap.Panic "kmalloc of non-positive size %d" size;
  let rsize = round16 size in
  let fl = free_list t rsize in
  let addr =
    match !fl with
    | a :: rest ->
        fl := rest;
        a
    | [] ->
        let a = t.brk in
        if a + rsize > Mem.heap_base + Mem.heap_size then
          Trap.trap Trap.Panic "out of kernel heap (%d live bytes)" t.live_bytes;
        t.brk <- a + rsize;
        a
  in
  (match Hashtbl.find_opt t.blocks addr with
  | Some b -> Hashtbl.replace t.blocks addr { b with state = Live; size; rsize }
  | None -> Hashtbl.replace t.blocks addr { addr; size; rsize; state = Live });
  Mem.set_valid t.mem addr rsize true;
  if zero then Mem.blit_zero t.mem addr rsize;
  t.live_bytes <- t.live_bytes + rsize;
  t.total_allocs <- t.total_allocs + 1;
  addr

let find_block t addr = Hashtbl.find_opt t.blocks addr

(* Release a block. Raises on double free or freeing a non-block. *)
let free t addr : block =
  match Hashtbl.find_opt t.blocks addr with
  | None -> Trap.trap Trap.Panic "kfree of non-heap address %d" addr
  | Some b when b.state = Freed -> Trap.trap Trap.Double_free "double free at address %d" addr
  | Some b ->
      b.state <- Freed;
      Mem.set_valid t.mem addr b.rsize false;
      let fl = free_list t b.rsize in
      fl := addr :: !fl;
      t.live_bytes <- t.live_bytes - b.rsize;
      t.total_frees <- t.total_frees + 1;
      b

(* Leak a block: CCount's soundness-preserving response to a bad free
   ("on failure, we log an error and (optionally) leak the object"). *)
let leak t addr : unit =
  match Hashtbl.find_opt t.blocks addr with
  | None -> ()
  | Some b ->
      b.state <- Freed;
      (* The storage stays valid (and reachable garbage). *)
      t.total_frees <- t.total_frees + 1

let pages_alloc t ~pages : int =
  let size = pages * 4096 in
  (* Page allocations are aligned by construction: round brk. *)
  t.brk <- (t.brk + 4095) / 4096 * 4096;
  alloc t ~size ~zero:true
