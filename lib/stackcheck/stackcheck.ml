(* Stack-overflow prevention (paper §3.1, second proposed analysis).

   "Given a sound call graph and information about the size of each
   stack frame, as in the Capriccio thread package, we can ensure that
   every possible chain of function calls stays within its allotted
   4 or 8 kB of stack space."

   A frame's size is its memory-resident locals as {!Kc.Layout.frame}
   lays them out (the bytes both VM engines use), plus a fixed
   bookkeeping overhead, plus any [__frame_hint] annotation. Unlike
   [Machine.push_frame] it does not round to 16 bytes. The call graph
   is BlockStop's (sound for function pointers). Recursive cycles have
   unbounded static depth; the paper's answer — runtime checks on the
   recursive entry — is what [needs_runtime_check] reports. *)

module I = Kc.Ir
module SM = Map.Make (String)
module SS = Set.Make (String)

(* Fixed per-call bookkeeping (return address, saved registers). *)
let frame_overhead = 32

let frame_size (prog : I.program) (fd : I.fundec) : int =
  let hint =
    List.fold_left
      (fun acc a -> match a with Kc.Ast.Fframe_hint n -> acc + n | _ -> acc)
      0 fd.I.fannots
  in
  frame_overhead + snd (Kc.Layout.frame prog fd) + hint

type result = {
  frames : int SM.t; (* per-function frame bytes *)
  depths : int SM.t; (* max stack bytes from each function; -1 = unbounded *)
  recursive : SS.t; (* functions on a call-graph cycle *)
  worst_chain : string list; (* deepest non-recursive chain from an entry *)
  worst_bytes : int;
}

(* Max-depth over the call graph with cycle detection (DFS, memoized).
   Depth of f = frame(f) + max over callees. Unbounded if recursive. *)
let analyze ~(cg : Blockstop.Callgraph.t) (prog : I.program) : result =
  let frames =
    List.fold_left
      (fun m (fd : I.fundec) -> SM.add fd.I.fname (frame_size prog fd) m)
      SM.empty prog.I.funcs
  in
  let depths = Hashtbl.create 64 in
  let recursive = ref SS.empty in
  let best_child = Hashtbl.create 64 in
  let rec depth (stack : SS.t) (f : string) : int =
    match Hashtbl.find_opt depths f with
    | Some d -> d
    | None ->
        if SS.mem f stack then begin
          recursive := SS.add f !recursive;
          -1 (* unbounded *)
        end
        else begin
          let frame = match SM.find_opt f frames with Some n -> n | None -> frame_overhead in
          let stack' = SS.add f stack in
          let deepest = ref 0 and child = ref None in
          List.iter
            (fun (e : Blockstop.Callgraph.edge) ->
              let callee = e.Blockstop.Callgraph.callee in
              match I.find_fun prog callee with
              | Some fd when not fd.I.fextern ->
                  let d = depth stack' callee in
                  if d = -1 then begin
                    deepest := -1;
                    child := Some callee
                  end
                  else if !deepest >= 0 && d > !deepest then begin
                    deepest := d;
                    child := Some callee
                  end
              | _ -> () (* builtins run on the host, no guest stack *))
            (Blockstop.Callgraph.callees cg f);
          let d = if !deepest = -1 then -1 else frame + !deepest in
          (* Memoize only completed (non-on-stack-dependent) results:
             a conservative approximation that is exact for DAGs. *)
          Hashtbl.replace depths f d;
          (match !child with Some c -> Hashtbl.replace best_child f c | None -> ());
          d
        end
  in
  List.iter (fun (fd : I.fundec) -> ignore (depth SS.empty fd.I.fname)) prog.I.funcs;
  let depths_map = Hashtbl.fold SM.add depths SM.empty in
  (* Deepest bounded chain. *)
  let worst_fn, worst_bytes =
    SM.fold
      (fun f d (bf, bd) -> if d > bd then (f, d) else (bf, bd))
      depths_map ("", 0)
  in
  let rec chain f acc =
    match Hashtbl.find_opt best_child f with
    | Some c when not (List.mem c acc) -> chain c (c :: acc)
    | _ -> List.rev acc
  in
  let worst_chain = if worst_fn = "" then [] else chain worst_fn [ worst_fn ] in
  { frames; depths = depths_map; recursive = !recursive; worst_chain; worst_bytes }

(* Does every chain from [entry] fit in [budget] bytes? *)
let fits (r : result) ~(entry : string) ~(budget : int) : bool =
  match SM.find_opt entry r.depths with
  | Some d -> d >= 0 && d <= budget
  | None -> true

(* Functions needing a runtime depth check: recursive entries (their
   static depth is unbounded). *)
let needs_runtime_check (r : result) : string list = SS.elements r.recursive

let pp fmt (r : result) =
  Format.fprintf fmt
    "stackcheck: %d functions, worst chain %d bytes (%s), %d recursive functions"
    (SM.cardinal r.depths) r.worst_bytes
    (String.concat " -> " r.worst_chain)
    (SS.cardinal r.recursive)
