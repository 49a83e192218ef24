(* The collaborative annotation database (paper §3.2).

   "We propose the creation of a collaborative database of source code
   information that would allow different researchers and tools to
   share and reuse information about publicly available source code."

   A fact binds a subject (function, struct field, global) to a kind
   of information with a payload and a provenance (hand-written, or
   inferred by a named tool). The store is a plain line-oriented text
   format so it can be diffed, merged and shipped — the paper's
   "store this information on the side instead of cluttering up the
   code". *)

module SS = Set.Make (String)

type subject =
  | Func of string
  | Field of string * string (* struct tag, field *)
  | Global of string

type provenance = Manual | Inferred of string (* tool name *)

type fact = {
  subject : subject;
  kind : string; (* "blocking", "count", "opt", "returns_err", "frame_bytes", ... *)
  payload : string; (* free-form, kind-specific *)
  provenance : provenance;
}

type t = { mutable facts : fact list }

let create () = { facts = [] }

let subject_to_string = function
  | Func f -> "func:" ^ f
  | Field (tag, f) -> Printf.sprintf "field:%s.%s" tag f
  | Global g -> "global:" ^ g

let subject_of_string s : subject option =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
      let kind = String.sub s 0 i and rest = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "func" -> Some (Func rest)
      | "field" -> (
          match String.index_opt rest '.' with
          | Some j ->
              Some (Field (String.sub rest 0 j, String.sub rest (j + 1) (String.length rest - j - 1)))
          | None -> None)
      | "global" -> Some (Global rest)
      | _ -> None)

let provenance_to_string = function Manual -> "manual" | Inferred tool -> "inferred/" ^ tool

let provenance_of_string s : provenance =
  if s = "manual" then Manual
  else if String.length s > 9 && String.sub s 0 9 = "inferred/" then
    Inferred (String.sub s 9 (String.length s - 9))
  else Inferred s

let fact_key f = (subject_to_string f.subject, f.kind, f.payload)

(* Add a fact; manual facts take precedence over inferred duplicates. *)
let add (db : t) (f : fact) : unit =
  let same g = fact_key g = fact_key f in
  match List.find_opt same db.facts with
  | Some existing ->
      if existing.provenance <> Manual && f.provenance = Manual then
        db.facts <- f :: List.filter (fun g -> not (same g)) db.facts
  | None -> db.facts <- f :: db.facts

let size (db : t) = List.length db.facts

let query (db : t) ?(kind : string option) (subject : subject) : fact list =
  List.filter
    (fun f -> f.subject = subject && match kind with None -> true | Some k -> f.kind = k)
    db.facts

let by_kind (db : t) (kind : string) : fact list = List.filter (fun f -> f.kind = kind) db.facts

(* Merge [src] into [dst] (manual wins over inferred). *)
let merge ~(into : t) (src : t) : unit = List.iter (add into) src.facts

(* ------------------------------------------------------------------ *)
(* Serialization: one tab-separated fact per line.                    *)
(* ------------------------------------------------------------------ *)

let to_string (db : t) : string =
  let lines =
    List.map
      (fun f ->
        Printf.sprintf "%s\t%s\t%s\t%s" (subject_to_string f.subject) f.kind f.payload
          (provenance_to_string f.provenance))
      db.facts
  in
  String.concat "\n" (List.sort compare lines) ^ "\n"

let of_string (s : string) : t =
  let db = create () in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ subj; kind; payload; prov ] -> (
          match subject_of_string subj with
          | Some subject -> add db { subject; kind; payload; provenance = provenance_of_string prov }
          | None -> ())
      | _ -> ())
    (String.split_on_char '\n' s);
  db

let save (db : t) (path : string) : unit =
  let oc = open_out path in
  output_string oc (to_string db);
  close_out oc

let load (path : string) : t =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s

(* ------------------------------------------------------------------ *)
(* Population from the program and the analyses.                      *)
(* ------------------------------------------------------------------ *)

module I = Kc.Ir

(* Population iterates Hashtbls; visit them in name order so the fact
   list (and therefore [query] order and the TSV export) is identical
   across insertion histories and OCaml versions. *)
let sorted_bindings (tbl : (string, 'a) Hashtbl.t) : (string * 'a) list =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Hand-written annotations present in the source. *)
let add_source_annotations (db : t) (prog : I.program) : unit =
  let annots_of_ty subject (ty : I.ty) =
    match ty with
    | I.Tptr (_, a) ->
        if a.I.a_count <> None then add db { subject; kind = "count"; payload = "dependent"; provenance = Manual };
        if a.I.a_nullterm then add db { subject; kind = "nullterm"; payload = ""; provenance = Manual };
        if a.I.a_opt then add db { subject; kind = "opt"; payload = ""; provenance = Manual };
        if a.I.a_trusted then add db { subject; kind = "trusted"; payload = ""; provenance = Manual }
    | _ -> ()
  in
  List.iter
    (fun (_, (c : I.compinfo)) ->
      List.iter
        (fun (f : I.fieldinfo) -> annots_of_ty (Field (c.I.cname, f.I.fname)) f.I.fty)
        c.I.cfields)
    (sorted_bindings prog.I.comps);
  List.iter
    (fun (name, (fd : I.fundec)) ->
      List.iter
        (fun a ->
          match a with
          | Kc.Ast.Fblocking ->
              add db { subject = Func name; kind = "blocking"; payload = ""; provenance = Manual }
          | Kc.Ast.Fblocking_if_gfp_wait ->
              add db
                { subject = Func name; kind = "blocking_if_gfp_wait"; payload = ""; provenance = Manual }
          | Kc.Ast.Freturns_err codes ->
              add db
                {
                  subject = Func name;
                  kind = "returns_err";
                  payload = String.concat "," (List.map Int64.to_string codes);
                  provenance = Manual;
                }
          | Kc.Ast.Facquires l ->
              add db { subject = Func name; kind = "acquires"; payload = l; provenance = Manual }
          | Kc.Ast.Freleases l ->
              add db { subject = Func name; kind = "releases"; payload = l; provenance = Manual }
          | Kc.Ast.Ftrusted | Kc.Ast.Fframe_hint _ -> ())
        fd.I.fannots)
    (sorted_bindings prog.I.fun_by_name)

(* Facts inferred by the analyses (the paper's "other properties were
   inferred by our tools"). *)
let add_blockstop_facts (db : t) (bl : Blockstop.Blocking.t) : unit =
  List.iter
    (fun (name, _) ->
      add db
        { subject = Func name; kind = "blocking"; payload = ""; provenance = Inferred "blockstop" })
    (Blockstop.Blocking.export_annotations bl)

let add_stackcheck_facts (db : t) (r : Stackcheck.result) : unit =
  Stackcheck.SM.iter
    (fun name depth ->
      add db
        {
          subject = Func name;
          kind = "stack_bytes";
          payload = (if depth < 0 then "unbounded" else string_of_int depth);
          provenance = Inferred "stackcheck";
        })
    r.Stackcheck.depths

let add_errcheck_facts (db : t) (r : Errcheck.report) : unit =
  List.iter
    (fun (name, codes) ->
      add db
        {
          subject = Func name;
          kind = "returns_err";
          payload = String.concat "," (List.map Int64.to_string codes);
          provenance =
            (if Errcheck.SS.mem name r.Errcheck.inferred then Inferred "errcheck" else Manual);
        })
    r.Errcheck.err_functions

(* Deputy's annotation suggestions for unannotated parameters. *)
let add_infer_facts (db : t) (prog : I.program) : unit =
  List.iter
    (fun (s : Deputy.Infer.suggestion) ->
      add db
        {
          subject = Func s.Deputy.Infer.sg_fn;
          kind = "suggest_annot";
          payload = Printf.sprintf "%s %s" s.Deputy.Infer.sg_param s.Deputy.Infer.sg_annot;
          provenance = Inferred "deputy-infer";
        })
    (Deputy.Infer.suggest prog)

(* One-call population: everything we know about a program. All
   whole-program artifacts come from the shared engine context, so a
   caller already holding one pays no rebuild; [mode] selects the
   points-to precision for the blocking facts. *)
let populate ?(mode = Blockstop.Pointsto.Type_based) (ctxt : Engine.Context.t) : t =
  let prog = Engine.Context.program ctxt in
  let db = create () in
  add_source_annotations db prog;
  add_blockstop_facts db (Engine.Context.blocking ~mode ctxt);
  add_stackcheck_facts
    db
    (Stackcheck.analyze ~cg:(Engine.Context.callgraph ~mode:Blockstop.Pointsto.Field_based ctxt) prog);
  add_errcheck_facts db (Errcheck.analyze prog);
  add_infer_facts db prog;
  db
