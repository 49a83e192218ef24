(* The fingerprint serializer as it was before it streamed into one
   buffer (a [Printf.sprintf] per location, int type, constant, field
   and case), kept as the reference the streaming one in
   [Engine.Fingerprint] must match byte for byte: every digest the
   artifact graph keys on has to stay what it was. Shared by the
   incremental and serve tests. *)
module I = Kc.Ir

let add = Buffer.add_string

let rec ser_ty b (ty : I.ty) =
  match ty with
  | I.Tvoid -> add b "v"
  | I.Tint (k, s) ->
      add b
        (Printf.sprintf "i%d%c" (Kc.Layout.int_size k)
           (match s with Kc.Ast.Signed -> 's' | Kc.Ast.Unsigned -> 'u'))
  | I.Tptr (t, a) ->
      add b "p{";
      ser_annots b a;
      ser_ty b t;
      add b "}"
  | I.Tarray (t, n) ->
      add b (Printf.sprintf "a%d:" n);
      ser_ty b t
  | I.Tfun (r, args) ->
      add b "f(";
      List.iter
        (fun t ->
          ser_ty b t;
          add b ",")
        args;
      add b ")";
      ser_ty b r
  | I.Tcomp tag ->
      add b "c:";
      add b tag

and ser_annots b (a : I.annots) =
  (match a.I.a_count with
  | Some e ->
      add b "#";
      ser_exp b e
  | None -> ());
  if a.I.a_nullterm then add b "N";
  if a.I.a_opt then add b "O";
  if a.I.a_trusted then add b "T";
  if a.I.a_user then add b "U"

and ser_exp b (e : I.exp) =
  (match e.I.e with
  | I.Econst n -> add b (Printf.sprintf "k%Ld" n)
  | I.Estr s ->
      add b (Printf.sprintf "s%d:" (String.length s));
      add b s
  | I.Elval lv ->
      add b "l";
      ser_lval b lv
  | I.Eunop (op, e1) ->
      add b (match op with Kc.Ast.Neg -> "u-" | Kc.Ast.Lognot -> "u!" | Kc.Ast.Bitnot -> "u~");
      ser_exp b e1
  | I.Ebinop (op, e1, e2) ->
      let opname =
        match op with
        | Kc.Ast.Add -> "+" | Kc.Ast.Sub -> "-" | Kc.Ast.Mul -> "*" | Kc.Ast.Div -> "/"
        | Kc.Ast.Mod -> "%" | Kc.Ast.Shl -> "<<" | Kc.Ast.Shr -> ">>" | Kc.Ast.Lt -> "<"
        | Kc.Ast.Gt -> ">" | Kc.Ast.Le -> "<=" | Kc.Ast.Ge -> ">=" | Kc.Ast.Eq -> "=="
        | Kc.Ast.Ne -> "!=" | Kc.Ast.Bitand -> "&" | Kc.Ast.Bitor -> "|"
        | Kc.Ast.Bitxor -> "^" | Kc.Ast.Logand -> "&&" | Kc.Ast.Logor -> "||"
      in
      add b ("b" ^ opname ^ "(");
      ser_exp b e1;
      add b ",";
      ser_exp b e2;
      add b ")"
  | I.Econd (c, e1, e2) ->
      add b "?(";
      ser_exp b c;
      add b ",";
      ser_exp b e1;
      add b ",";
      ser_exp b e2;
      add b ")"
  | I.Ecast (ty, e1) ->
      add b "(";
      ser_ty b ty;
      add b ")";
      ser_exp b e1
  | I.Eaddrof lv ->
      add b "&";
      ser_lval b lv
  | I.Estartof lv ->
      add b "&0";
      ser_lval b lv
  | I.Efun f ->
      add b "fn:";
      add b f
  | I.Eself_field (tag, fname) -> add b (Printf.sprintf "self:%s.%s" tag fname));
  add b "@";
  ser_ty b e.I.ety

and ser_lval b ((host, offs) : I.lval) =
  (match host with
  | I.Lvar v ->
      add b (if v.I.vglob then "G:" else "V:");
      add b v.I.vname
  | I.Lmem e ->
      add b "M:";
      ser_exp b e);
  List.iter
    (fun o ->
      match o with
      | I.Ofield fi -> add b (Printf.sprintf ".%s.%s" fi.I.fcomp fi.I.fname)
      | I.Oindex e ->
          add b "[";
          ser_exp b e;
          add b "]")
    offs

let ser_check b (ck : I.check) =
  match ck with
  | I.Ck_nonnull e ->
      add b "nn(";
      ser_exp b e;
      add b ")"
  | I.Ck_le (a, c) ->
      add b "le(";
      ser_exp b a;
      add b ",";
      ser_exp b c;
      add b ")"
  | I.Ck_lt (a, c) ->
      add b "lt(";
      ser_exp b a;
      add b ",";
      ser_exp b c;
      add b ")"
  | I.Ck_nt_next (e, w) ->
      add b (Printf.sprintf "nt%d(" w);
      ser_exp b e;
      add b ")"
  | I.Ck_not_atomic -> add b "na"

let ser_instr b (i : I.instr) =
  match i with
  | I.Iset (lv, e) ->
      add b "set ";
      ser_lval b lv;
      add b "=";
      ser_exp b e
  | I.Icall (lv, target, args) ->
      add b "call ";
      (match lv with
      | Some lv ->
          ser_lval b lv;
          add b "="
      | None -> ());
      (match target with
      | I.Direct f ->
          add b "d:";
          add b f
      | I.Indirect e ->
          add b "i:";
          ser_exp b e);
      add b "(";
      List.iter
        (fun a ->
          ser_exp b a;
          add b ",")
        args;
      add b ")"
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

let ser_loc b (l : Kc.Loc.t) = add b (Printf.sprintf "@%s:%d:%d" l.Kc.Loc.file l.Kc.Loc.line l.Kc.Loc.col)

let rec ser_stmt b (s : I.stmt) =
  ser_loc b s.I.sloc;
  match s.I.sk with
  | I.Sinstr i ->
      ser_instr b i;
      add b ";"
  | I.Sif (c, b1, b2) ->
      add b "if(";
      ser_exp b c;
      add b "){";
      ser_block b b1;
      add b "}{";
      ser_block b b2;
      add b "}"
  | I.Swhile (c, body, step) ->
      add b "while(";
      ser_exp b c;
      add b "){";
      ser_block b body;
      add b "}step{";
      ser_block b step;
      add b "}"
  | I.Sdowhile (body, c) ->
      add b "do{";
      ser_block b body;
      add b "}while(";
      ser_exp b c;
      add b ")"
  | I.Sswitch (e, cases) ->
      add b "switch(";
      ser_exp b e;
      add b "){";
      List.iter
        (fun (c : I.case) ->
          List.iter (fun v -> add b (Printf.sprintf "case %Ld:" v)) c.I.cvals;
          if c.I.cdefault then add b "default:";
          add b "{";
          ser_block b c.I.cbody;
          add b "}")
        cases;
      add b "}"
  | I.Sbreak -> add b "break;"
  | I.Scontinue -> add b "continue;"
  | I.Sreturn e -> (
      add b "return";
      match e with
      | Some e ->
          add b " ";
          ser_exp b e;
          add b ";"
      | None -> add b ";")
  | I.Sblock body ->
      add b "{";
      ser_block b body;
      add b "}"
  | I.Sdelayed body ->
      add b "delayed{";
      ser_block b body;
      add b "}"
  | I.Strusted body ->
      add b "trusted{";
      ser_block b body;
      add b "}"

and ser_block b (body : I.block) = List.iter (ser_stmt b) body

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
      List.iter (fun c -> add b (Printf.sprintf "%Ld," c)) codes
  | Kc.Ast.Fframe_hint n -> add b (Printf.sprintf "frame:%d" n)

(* A function's header: name, placement, linkage, annotations and
   signature. *)
let ser_fn_header b (fd : I.fundec) =
  add b "fn ";
  add b fd.I.fname;
  ser_loc b fd.I.floc;
  if fd.I.fstatic then add b " static";
  if fd.I.fextern then add b " extern";
  add b " [";
  List.iter
    (fun a ->
      ser_fun_annot b a;
      add b ",")
    fd.I.fannots;
  add b "] (";
  List.iter
    (fun (v : I.varinfo) ->
      add b v.I.vname;
      add b ":";
      ser_ty b v.I.vty;
      add b ",")
    fd.I.sformals;
  add b ")->";
  ser_ty b fd.I.fret

let fn (fd : I.fundec) : string =
  let b = Buffer.create 1024 in
  ser_fn_header b fd;
  add b "{";
  ser_block b fd.I.fbody;
  add b "}";
  Digest.to_hex (Digest.string (Buffer.contents b))

let rec ser_ginit b (gi : I.ginit) =
  match gi with
  | I.Gi_exp e -> ser_exp b e
  | I.Gi_list items ->
      add b "{";
      List.iter
        (fun i ->
          ser_ginit b i;
          add b ",")
        items;
      add b "}"

let header (prog : I.program) : string =
  let b = Buffer.create 1024 in
  let tags = Hashtbl.fold (fun tag _ acc -> tag :: acc) prog.I.comps [] in
  List.iter
    (fun tag ->
      let c = I.comp_find prog tag in
      add b (if c.I.cstruct then "struct " else "union ");
      add b tag;
      add b "{";
      List.iter
        (fun (f : I.fieldinfo) ->
          add b f.I.fname;
          add b ":";
          ser_ty b f.I.fty;
          add b ";")
        c.I.cfields;
      add b "}")
    (List.sort String.compare tags);
  let enums = Hashtbl.fold (fun k v acc -> (k, v) :: acc) prog.I.enum_items [] in
  List.iter
    (fun (k, v) -> add b (Printf.sprintf "enum %s=%Ld;" k v))
    (List.sort compare enums);
  List.iter
    (fun ((v : I.varinfo), init) ->
      add b "glob ";
      add b v.I.vname;
      add b ":";
      ser_ty b v.I.vty;
      (match init with
      | Some gi ->
          add b "=";
          ser_ginit b gi
      | None -> ());
      add b ";")
    prog.I.globals;
  Digest.to_hex (Digest.string (Buffer.contents b))

let program (prog : I.program) : string =
  let b = Buffer.create 1024 in
  add b (header prog);
  List.iter
    (fun (fd : I.fundec) ->
      add b fd.I.fname;
      add b "=";
      add b (fn fd);
      add b ";")
    prog.I.funcs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The first digest of [prog] on which [Engine.Fingerprint] and this
   reference disagree, if any: the header, a function (through
   [table_of], [fn] and the name index) or the program digest. *)
let mismatch (prog : I.program) : string option =
  let t = Engine.Fingerprint.table_of prog in
  let header = header prog in
  if t.Engine.Fingerprint.t_header <> header || Engine.Fingerprint.header prog <> header then
    Some "header"
  else
    match
      List.find_opt
        (fun (fd : I.fundec) ->
          let d = fn fd in
          Engine.Fingerprint.fn fd <> d
          || Engine.Fingerprint.find t fd.I.fname <> Some d
          || List.assoc_opt fd.I.fname t.Engine.Fingerprint.t_fns <> Some d)
        prog.I.funcs
    with
    | Some fd -> Some ("function " ^ fd.I.fname)
    | None -> if t.Engine.Fingerprint.t_program <> program prog then Some "program" else None
