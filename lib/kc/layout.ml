(* Memory layout of KC types: sizes, alignments and field offsets.

   The target model is LP64 x86-ish: char 1, short 2, int 4, long 8,
   pointers 8 bytes; natural alignment everywhere. *)

exception Layout_error of string

let ptr_size = 8

let int_size = function
  | Ast.Ichar -> 1
  | Ast.Ishort -> 2
  | Ast.Iint -> 4
  | Ast.Ilong -> 8

let rec size_of (prog : Ir.program) (ty : Ir.ty) : int =
  match ty with
  | Ir.Tvoid -> raise (Layout_error "sizeof(void)")
  | Ir.Tint (k, _) -> int_size k
  | Ir.Tptr _ -> ptr_size
  | Ir.Tarray (t, n) -> n * size_of prog t
  | Ir.Tfun _ -> raise (Layout_error "sizeof(function)")
  | Ir.Tcomp tag -> comp_size prog (Ir.comp_find prog tag)

and align_of (prog : Ir.program) (ty : Ir.ty) : int =
  match ty with
  | Ir.Tvoid -> raise (Layout_error "alignof(void)")
  | Ir.Tint (k, _) -> int_size k
  | Ir.Tptr _ -> ptr_size
  | Ir.Tarray (t, _) -> align_of prog t
  | Ir.Tfun _ -> raise (Layout_error "alignof(function)")
  | Ir.Tcomp tag ->
      let c = Ir.comp_find prog tag in
      List.fold_left (fun a f -> max a (align_of prog f.Ir.fty)) 1 c.Ir.cfields

and round_up n a = (n + a - 1) / a * a

and comp_size prog (c : Ir.compinfo) : int =
  if c.Ir.cstruct then begin
    let off =
      List.fold_left
        (fun off f ->
          let a = align_of prog f.Ir.fty in
          round_up off a + size_of prog f.Ir.fty)
        0 c.Ir.cfields
    in
    let align = List.fold_left (fun a f -> max a (align_of prog f.Ir.fty)) 1 c.Ir.cfields in
    max 1 (round_up off align)
  end
  else begin
    let sz = List.fold_left (fun m f -> max m (size_of prog f.Ir.fty)) 0 c.Ir.cfields in
    let align = List.fold_left (fun a f -> max a (align_of prog f.Ir.fty)) 1 c.Ir.cfields in
    max 1 (round_up sz align)
  end

(* Byte offset of a field within its struct (0 for union members). *)
let field_offset (prog : Ir.program) (fi : Ir.fieldinfo) : int =
  let c = Ir.comp_find prog fi.Ir.fcomp in
  if not c.Ir.cstruct then 0
  else begin
    let rec go off = function
      | [] -> raise (Layout_error (Printf.sprintf "field %s not in %s" fi.Ir.fname c.Ir.cname))
      | f :: rest ->
          let a = align_of prog f.Ir.fty in
          let off = round_up off a in
          if f.Ir.fname = fi.Ir.fname then off else go (off + size_of prog f.Ir.fty) rest
    in
    go 0 c.Ir.cfields
  end

(* Size of the pointed-to element of a pointer/array type. *)
let elem_size prog = function
  | Ir.Tptr (t, _) | Ir.Tarray (t, _) -> size_of prog t
  | ty -> raise (Layout_error ("elem_size of non-pointer " ^ Ir.type_to_string ty))

(* A function's frame: each formal, then each local, in declaration
   order. A variable lives in memory when its address is taken or it
   is a struct or array; it gets the next offset aligned for its type.
   Every other variable lives in a register ([None]). The byte count
   is the end of the last memory slot, unrounded. *)
let frame (prog : Ir.program) (fd : Ir.fundec) : (Ir.varinfo * int option) list * int =
  let in_memory (v : Ir.varinfo) =
    v.Ir.vaddrof || match v.Ir.vty with Ir.Tcomp _ | Ir.Tarray _ -> true | _ -> false
  in
  let slot off v =
    if in_memory v then
      let at = round_up off (align_of prog v.Ir.vty) in
      (at + size_of prog v.Ir.vty, (v, Some at))
    else (off, (v, None))
  in
  let bytes, slots = List.fold_left_map slot 0 (fd.Ir.sformals @ fd.Ir.slocals) in
  (slots, bytes)
