(* Content hashing of KC IR for the artifact graph.

   The digests here are the [fp] inputs of {!Graph.get}: a cached
   artifact survives exactly as long as the digest of what it reads is
   unchanged. Two granularities:

   - per-function ([fn]): the function's full serialized form,
     statement locations included — an in-place body edit changes only
     that function's digest, while an edit that shifts later functions
     down a line changes theirs too (their cached CFGs carry statement
     locations, so reusing them would report stale lines);
   - whole program ([table_of].t_program): the header (structs, enums,
     globals) plus every function digest in program order — the input
     hash of every whole-program artifact. No artifact keys on a
     projection that would have to mirror what its analysis reads, so
     a cached result can only be stale if this digest collides.

   Serialization is deterministic across re-parses of the same source:
   it never includes [vid]/[fid] counters, only names (which the
   elaborator derives deterministically from the source text). *)

module I = Kc.Ir

module Names = Map.Make (String)

type table = {
  t_header : string;  (** structs, enums, globals (with initializers) *)
  t_fns : (string * string) list;  (** per defined function, program order *)
  t_index : string Names.t;  (** [t_fns] keyed by name *)
  t_program : string;  (** header + every function *)
}

let find (t : table) (name : string) : string option = Names.find_opt name t.t_index

(* ------------------------------------------------------------------ *)
(* Canonical serialization                                            *)
(* ------------------------------------------------------------------ *)

(* Everything is written straight into one growable byte buffer: tags
   and names with [chr]/[add], integers with [add_int], never an
   intermediate string. The bytes are the ones the former
   [Printf]-based serializer wrote ([%d] and [%Ld] are plain signed
   decimal), so every digest is unchanged. A digest is taken over the
   buffer's bytes in place: copying each function's serialization out
   first, as [Buffer.contents] would, allocates it again on the major
   heap. *)

type buf = { mutable bytes : Bytes.t; mutable len : int }

let create () = { bytes = Bytes.create 1024; len = 0 }

let grow b n =
  let bytes = Bytes.create (max (b.len + n) (2 * Bytes.length b.bytes)) in
  Bytes.blit b.bytes 0 bytes 0 b.len;
  b.bytes <- bytes

let chr b c =
  if b.len >= Bytes.length b.bytes then grow b 1;
  Bytes.unsafe_set b.bytes b.len c;
  b.len <- b.len + 1

let add b s =
  let n = String.length s in
  if b.len + n > Bytes.length b.bytes then grow b n;
  Bytes.unsafe_blit_string s 0 b.bytes b.len n;
  b.len <- b.len + n

(* [f b x] for each [x], and [f b x] then [sep] for each [x]: with a
   toplevel [f], neither allocates a closure per list. *)
let rec each b f = function
  | [] -> ()
  | x :: r ->
      f b x;
      each b f r

let rec each_then b f sep = function
  | [] -> ()
  | x :: r ->
      f b x;
      chr b sep;
      each_then b f sep r

(* Decimal digits of [n >= 0], most significant first. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  chr b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then add b (string_of_int n)
  else begin
    chr b '-';
    add_digits b (-n)
  end

(* [%Ld]: through [add_int] when the value fits an OCaml int. *)
let add_int64 b n =
  let i = Int64.to_int n in
  if Int64.equal (Int64.of_int i) n then add_int b i else add b (Int64.to_string n)

let rec ser_ty b (ty : I.ty) =
  match ty with
  | I.Tvoid -> chr b 'v'
  | I.Tint (k, s) ->
      chr b 'i';
      add_int b (Kc.Layout.int_size k);
      chr b (match s with Kc.Ast.Signed -> 's' | Kc.Ast.Unsigned -> 'u')
  | I.Tptr (t, a) ->
      add b "p{";
      ser_annots b a;
      ser_ty b t;
      chr b '}'
  | I.Tarray (t, n) ->
      chr b 'a';
      add_int b n;
      chr b ':';
      ser_ty b t
  | I.Tfun (r, args) ->
      add b "f(";
      each_then b ser_ty ',' args;
      chr b ')';
      ser_ty b r
  | I.Tcomp tag ->
      add b "c:";
      add b tag

and ser_annots b (a : I.annots) =
  (match a.I.a_count with
  | Some e ->
      chr b '#';
      ser_exp b e
  | None -> ());
  if a.I.a_nullterm then chr b 'N';
  if a.I.a_opt then chr b 'O';
  if a.I.a_trusted then chr b 'T';
  if a.I.a_user then chr b 'U'

and ser_exp b (e : I.exp) =
  (match e.I.e with
  | I.Econst n ->
      chr b 'k';
      add_int64 b n
  | I.Estr s ->
      chr b 's';
      add_int b (String.length s);
      chr b ':';
      add b s
  | I.Elval lv ->
      chr b 'l';
      ser_lval b lv
  | I.Eunop (op, e1) ->
      chr b 'u';
      add b (Kc.Ast.unop_to_string op);
      ser_exp b e1
  | I.Ebinop (op, e1, e2) ->
      chr b 'b';
      add b (Kc.Ast.binop_to_string op);
      chr b '(';
      ser_exp b e1;
      chr b ',';
      ser_exp b e2;
      chr b ')'
  | I.Econd (c, e1, e2) ->
      add b "?(";
      ser_exp b c;
      chr b ',';
      ser_exp b e1;
      chr b ',';
      ser_exp b e2;
      chr b ')'
  | I.Ecast (ty, e1) ->
      chr b '(';
      ser_ty b ty;
      chr b ')';
      ser_exp b e1
  | I.Eaddrof lv ->
      chr b '&';
      ser_lval b lv
  | I.Estartof lv ->
      add b "&0";
      ser_lval b lv
  | I.Efun f ->
      add b "fn:";
      add b f
  | I.Eself_field (tag, fname) ->
      add b "self:";
      add b tag;
      chr b '.';
      add b fname);
  chr b '@';
  ser_ty b e.I.ety

and ser_lval b ((host, offs) : I.lval) =
  (match host with
  | I.Lvar v ->
      add b (if v.I.vglob then "G:" else "V:");
      add b v.I.vname
  | I.Lmem e ->
      add b "M:";
      ser_exp b e);
  each b ser_offset offs

and ser_offset b (o : I.offset) =
  match o with
  | I.Ofield fi ->
      chr b '.';
      add b fi.I.fcomp;
      chr b '.';
      add b fi.I.fname
  | I.Oindex e ->
      chr b '[';
      ser_exp b e;
      chr b ']'

let ser_check b (ck : I.check) =
  match ck with
  | I.Ck_nonnull e ->
      add b "nn(";
      ser_exp b e;
      chr b ')'
  | I.Ck_le (a, c) ->
      add b "le(";
      ser_exp b a;
      chr b ',';
      ser_exp b c;
      chr b ')'
  | I.Ck_lt (a, c) ->
      add b "lt(";
      ser_exp b a;
      chr b ',';
      ser_exp b c;
      chr b ')'
  | I.Ck_nt_next (e, w) ->
      add b "nt";
      add_int b w;
      chr b '(';
      ser_exp b e;
      chr b ')'
  | I.Ck_not_atomic -> add b "na"

let ser_instr b (i : I.instr) =
  match i with
  | I.Iset (lv, e) ->
      add b "set ";
      ser_lval b lv;
      chr b '=';
      ser_exp b e
  | I.Icall (lv, target, args) ->
      add b "call ";
      (match lv with
      | Some lv ->
          ser_lval b lv;
          chr b '='
      | None -> ());
      (match target with
      | I.Direct f ->
          add b "d:";
          add b f
      | I.Indirect e ->
          add b "i:";
          ser_exp b e);
      chr b '(';
      each_then b ser_exp ',' args;
      chr b ')'
  | I.Icheck (ck, reason) ->
      add b "ck ";
      ser_check b ck;
      add b reason
  | I.Irc_inc e ->
      add b "rc+ ";
      ser_exp b e
  | I.Irc_dec e ->
      add b "rc- ";
      ser_exp b e
  | I.Irc_update (lv, e) ->
      add b "rc= ";
      ser_lval b lv;
      add b "<-";
      ser_exp b e

let ser_loc b (l : Kc.Loc.t) =
  chr b '@';
  add b l.Kc.Loc.file;
  chr b ':';
  add_int b l.Kc.Loc.line;
  chr b ':';
  add_int b l.Kc.Loc.col

let rec ser_stmt b (s : I.stmt) =
  ser_loc b s.I.sloc;
  match s.I.sk with
  | I.Sinstr i ->
      ser_instr b i;
      chr b ';'
  | I.Sif (c, b1, b2) ->
      add b "if(";
      ser_exp b c;
      add b "){";
      ser_block b b1;
      add b "}{";
      ser_block b b2;
      chr b '}'
  | I.Swhile (c, body, step) ->
      add b "while(";
      ser_exp b c;
      add b "){";
      ser_block b body;
      add b "}step{";
      ser_block b step;
      chr b '}'
  | I.Sdowhile (body, c) ->
      add b "do{";
      ser_block b body;
      add b "}while(";
      ser_exp b c;
      chr b ')'
  | I.Sswitch (e, cases) ->
      add b "switch(";
      ser_exp b e;
      add b "){";
      each b ser_case cases;
      chr b '}'
  | I.Sbreak -> add b "break;"
  | I.Scontinue -> add b "continue;"
  | I.Sreturn e -> (
      add b "return";
      match e with
      | Some e ->
          chr b ' ';
          ser_exp b e;
          chr b ';'
      | None -> chr b ';')
  | I.Sblock body ->
      chr b '{';
      ser_block b body;
      chr b '}'
  | I.Sdelayed body ->
      add b "delayed{";
      ser_block b body;
      chr b '}'
  | I.Strusted body ->
      add b "trusted{";
      ser_block b body;
      chr b '}'

and ser_case b (c : I.case) =
  each_then b
    (fun b v ->
      add b "case ";
      add_int64 b v)
    ':' c.I.cvals;
  if c.I.cdefault then add b "default:";
  chr b '{';
  ser_block b c.I.cbody;
  chr b '}'

and ser_block b (body : I.block) = each b ser_stmt body

let ser_fun_annot b (a : I.fun_annot) =
  match a with
  | Kc.Ast.Fblocking -> add b "blocking"
  | Kc.Ast.Fblocking_if_gfp_wait -> add b "blocking_if_gfp_wait"
  | Kc.Ast.Ftrusted -> add b "trusted"
  | Kc.Ast.Facquires l ->
      add b "acquires:";
      add b l
  | Kc.Ast.Freleases l ->
      add b "releases:";
      add b l
  | Kc.Ast.Freturns_err codes ->
      add b "returns_err:";
      each_then b add_int64 ',' codes
  | Kc.Ast.Fframe_hint n ->
      add b "frame:";
      add_int b n

(* A function: name, placement, linkage, annotations, signature and
   body with statement locations. *)
let ser_fn b (fd : I.fundec) =
  add b "fn ";
  add b fd.I.fname;
  ser_loc b fd.I.floc;
  if fd.I.fstatic then add b " static";
  if fd.I.fextern then add b " extern";
  add b " [";
  each_then b ser_fun_annot ',' fd.I.fannots;
  add b "] (";
  each_then b
    (fun b (v : I.varinfo) ->
      add b v.I.vname;
      chr b ':';
      ser_ty b v.I.vty)
    ',' fd.I.sformals;
  add b ")->";
  ser_ty b fd.I.fret;
  chr b '{';
  ser_block b fd.I.fbody;
  chr b '}'

(* The digest of what [ser] writes, serialized into [b]. *)
let digest_with b ser x =
  b.len <- 0;
  ser b x;
  Digest.to_hex (Digest.subbytes b.bytes 0 b.len)

let fn (fd : I.fundec) : string = digest_with (create ()) ser_fn fd

let rec ser_ginit b (gi : I.ginit) =
  match gi with
  | I.Gi_exp e -> ser_exp b e
  | I.Gi_list items ->
      chr b '{';
      each_then b ser_ginit ',' items;
      chr b '}'

let ser_header b (prog : I.program) =
  let tags = Hashtbl.fold (fun tag _ acc -> tag :: acc) prog.I.comps [] in
  List.iter
    (fun tag ->
      let c = I.comp_find prog tag in
      add b (if c.I.cstruct then "struct " else "union ");
      add b tag;
      chr b '{';
      List.iter
        (fun (f : I.fieldinfo) ->
          add b f.I.fname;
          chr b ':';
          ser_ty b f.I.fty;
          chr b ';')
        c.I.cfields;
      chr b '}')
    (List.sort String.compare tags);
  let enums = Hashtbl.fold (fun k v acc -> (k, v) :: acc) prog.I.enum_items [] in
  List.iter
    (fun (k, v) ->
      add b "enum ";
      add b k;
      chr b '=';
      add_int64 b v;
      chr b ';')
    (List.sort compare enums);
  List.iter
    (fun ((v : I.varinfo), init) ->
      add b "glob ";
      add b v.I.vname;
      chr b ':';
      ser_ty b v.I.vty;
      (match init with
      | Some gi ->
          chr b '=';
          ser_ginit b gi
      | None -> ());
      chr b ';')
    prog.I.globals

let header (prog : I.program) : string = digest_with (create ()) ser_header prog

(* One buffer serves every digest of the table. It is this call's own:
   contexts are created on [Par] workers too. *)
let table_of (prog : I.program) : table =
  let b = create () in
  let t_header = digest_with b ser_header prog in
  let t_fns = List.map (fun (fd : I.fundec) -> (fd.I.fname, digest_with b ser_fn fd)) prog.I.funcs in
  let ser_program b () =
    add b t_header;
    List.iter
      (fun (name, d) ->
        add b name;
        chr b '=';
        add b d;
        chr b ';')
      t_fns
  in
  {
    t_header;
    t_fns;
    t_index = List.fold_left (fun m (name, d) -> Names.add name d m) Names.empty t_fns;
    t_program = digest_with b ser_program ();
  }

type diff = {
  d_changed : string list;  (** defined in both, body or header differs *)
  d_added : string list;
  d_removed : string list;
  d_header_changed : bool;
}

let diff ~(old : table) (fresh : table) : diff =
  let changed =
    List.filter_map
      (fun (name, d) ->
        match find old name with
        | Some d' when not (String.equal d d') -> Some name
        | _ -> None)
      fresh.t_fns
  in
  let missing_from t = List.filter_map (fun (name, _) -> if Names.mem name t.t_index then None else Some name) in
  {
    d_changed = changed;
    d_added = missing_from old fresh.t_fns;
    d_removed = missing_from fresh old.t_fns;
    d_header_changed = not (String.equal old.t_header fresh.t_header);
  }

let unchanged ~(old : table) (fresh : table) : bool =
  String.equal old.t_program fresh.t_program
