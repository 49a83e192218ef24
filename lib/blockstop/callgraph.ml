(* Whole-program call graph with function-pointer resolution.

   Each node is a function name; each edge records the call site, how
   it was resolved (direct or via a pointer), and what is known about
   a GFP-flags argument (for [__blocking_if_gfp_wait] allocators). *)

module I = Kc.Ir
module SS = Set.Make (String)

type gfp_info =
  | No_gfp (* callee has no gfp-dependent behaviour *)
  | Gfp_const_wait (* constant argument with __GFP_WAIT set *)
  | Gfp_const_nowait (* constant argument without __GFP_WAIT *)
  | Gfp_unknown (* non-constant: conservatively may wait *)

type via = Direct | Via_fptr

type edge = {
  caller : string;
  callee : string;
  via : via;
  loc : Kc.Loc.t;
  gfp : gfp_info;
}

type t = {
  prog : I.program;
  pointsto : Pointsto.t;
  edges : edge list;
  callees_of : (string, edge list) Hashtbl.t;
}

(* Position of a gfp-flags parameter of a callee, by declaration: the
   parameter named "gfp" or "flags" of integer type. *)
let gfp_param_index (fd : I.fundec) : int option =
  let rec go i = function
    | [] -> None
    | (v : I.varinfo) :: rest ->
        if (v.I.vname = "gfp" || v.I.vname = "flags" || v.I.vname = "gfp_mask")
           && I.is_integral v.I.vty
        then Some i
        else go (i + 1) rest
  in
  go 0 fd.I.sformals

let gfp_of_call (prog : I.program) (callee : string) (args : I.exp list) : gfp_info =
  match I.find_fun prog callee with
  | None -> No_gfp
  | Some fd ->
      if not (List.mem Kc.Ast.Fblocking_if_gfp_wait fd.I.fannots) then No_gfp
      else begin
        match gfp_param_index fd with
        | None -> Gfp_unknown
        | Some i -> (
            match List.nth_opt args i with
            | None -> Gfp_unknown
            | Some a -> (
                let rec const_of (e : I.exp) =
                  match e.I.e with
                  | I.Econst n -> Some n
                  | I.Ecast (_, inner) -> const_of inner
                  | _ -> None
                in
                match const_of a with
                | Some n -> if Int64.logand n 1L <> 0L then Gfp_const_wait else Gfp_const_nowait
                | None -> Gfp_unknown))
      end

let build ?(mode = Pointsto.Type_based) ?pointsto (prog : I.program) : t =
  (* A caller already holding points-to facts (the engine) passes them
     in; [mode] is then taken from the prebuilt result. *)
  let pointsto =
    match pointsto with Some p -> p | None -> Pointsto.build ~mode prog
  in
  let edges = ref [] in
  List.iter
    (fun (fd : I.fundec) ->
      I.iter_stmts
        (fun s ->
          match s.I.sk with
          | I.Sinstr (I.Icall (_, target, args)) -> (
              match target with
              | I.Direct callee ->
                  edges :=
                    {
                      caller = fd.I.fname;
                      callee;
                      via = Direct;
                      loc = s.I.sloc;
                      gfp = gfp_of_call prog callee args;
                    }
                    :: !edges
              | I.Indirect fe ->
                  SS.iter
                    (fun callee ->
                      edges :=
                        {
                          caller = fd.I.fname;
                          callee;
                          via = Via_fptr;
                          loc = s.I.sloc;
                          gfp = gfp_of_call prog callee args;
                        }
                        :: !edges)
                    (Pointsto.targets pointsto fe))
          | _ -> ())
        fd.I.fbody)
    prog.I.funcs;
  let callees_of = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let cur = match Hashtbl.find_opt callees_of e.caller with Some l -> l | None -> [] in
      Hashtbl.replace callees_of e.caller (e :: cur))
    !edges;
  { prog; pointsto; edges = !edges; callees_of }

let callees (t : t) (fname : string) : edge list =
  match Hashtbl.find_opt t.callees_of fname with Some l -> l | None -> []

let n_edges t = List.length t.edges

(* Is [callee] reachable from [caller]? For tests and reports. *)
let reachable (t : t) ~from : SS.t =
  let seen = ref SS.empty in
  let rec dfs f =
    if not (SS.mem f !seen) then begin
      seen := SS.add f !seen;
      List.iter (fun e -> dfs e.callee) (callees t f)
    end
  in
  dfs from;
  !seen
