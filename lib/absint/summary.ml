(* Interprocedural function summaries.

   The direct-call graph over defined functions is condensed with
   Tarjan's SCC algorithm, which emits components callees-first.
   Singleton, non-recursive components are solved once with the
   summaries of everything below them already available; recursive
   components fall back to the return type's range (sound, and it
   keeps summary computation a single pass — no global fixpoint). *)

module I = Kc.Ir

let direct_callees (fd : I.fundec) : string list =
  let acc = ref [] in
  I.iter_instrs
    (fun i -> match i with I.Icall (_, I.Direct f, _) -> acc := f :: !acc | _ -> ())
    fd.I.fbody;
  List.sort_uniq compare !acc

(* Tarjan over function names; [sccs] come out in reverse topological
   order of the condensation, i.e. callees before callers. *)
let sccs_of (funcs : I.fundec list) : I.fundec list list =
  let by_name = Hashtbl.create 64 in
  List.iter (fun fd -> Hashtbl.replace by_name fd.I.fname fd) funcs;
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let next = ref 0 in
  let out = ref [] in
  let rec strongconnect name =
    Hashtbl.replace index name !next;
    Hashtbl.replace lowlink name !next;
    incr next;
    stack := name :: !stack;
    Hashtbl.replace on_stack name ();
    let fd = Hashtbl.find by_name name in
    List.iter
      (fun callee ->
        if Hashtbl.mem by_name callee then
          if not (Hashtbl.mem index callee) then begin
            strongconnect callee;
            Hashtbl.replace lowlink name
              (min (Hashtbl.find lowlink name) (Hashtbl.find lowlink callee))
          end
          else if Hashtbl.mem on_stack callee then
            Hashtbl.replace lowlink name
              (min (Hashtbl.find lowlink name) (Hashtbl.find index callee)))
      (direct_callees fd);
    if Hashtbl.find lowlink name = Hashtbl.find index name then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | top :: rest ->
            stack := rest;
            Hashtbl.remove on_stack top;
            let acc = Hashtbl.find by_name top :: acc in
            if top = name then acc else pop acc
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun fd -> if not (Hashtbl.mem index fd.I.fname) then strongconnect fd.I.fname) funcs;
  List.rev !out

let is_self_recursive (fd : I.fundec) = List.mem fd.I.fname (direct_callees fd)

(* Group the topologically ordered SCCs into bottom-up levels:
   level(scc) = 1 + max level of its callee SCCs. Every component in a
   level depends only on strictly lower levels, so the components of
   one level are independent of each other — the unit of parallelism.
   Levels come back lowest first, each preserving SCC emission order. *)
let levels_of (sccs : I.fundec list list) : I.fundec list list list =
  let scc_of_fun = Hashtbl.create 64 in
  List.iteri
    (fun idx scc -> List.iter (fun fd -> Hashtbl.replace scc_of_fun fd.I.fname idx) scc)
    sccs;
  let level_of_scc = Hashtbl.create 64 in
  let by_level = Hashtbl.create 16 in
  List.iteri
    (fun idx scc ->
      let lvl =
        List.fold_left
          (fun acc fd ->
            List.fold_left
              (fun acc callee ->
                match Hashtbl.find_opt scc_of_fun callee with
                | Some cidx when cidx <> idx -> max acc (1 + Hashtbl.find level_of_scc cidx)
                | _ -> acc)
              acc (direct_callees fd))
          0 scc
      in
      Hashtbl.replace level_of_scc idx lvl;
      let prev = Option.value (Hashtbl.find_opt by_level lvl) ~default:[] in
      Hashtbl.replace by_level lvl (scc :: prev))
    sccs;
  let max_level = Hashtbl.fold (fun _ l acc -> max l acc) level_of_scc (-1) in
  List.init (max_level + 1) (fun l ->
      List.rev (Option.value (Hashtbl.find_opt by_level l) ~default:[]))

let solve_one ~ifaces ~summaries ~cfg_of (fd : I.fundec) : Aval.t =
  let r = Solver.analyze_cfg ~summaries ~ifaces (cfg_of fd) in
  let ret = Solver.return_aval fd r in
  if Aval.is_bot ret then Transfer.of_ty fd.I.fret else ret

(* What a fixpoint over [fd] reads of the interprocedural maps: a
   summary or interface is looked up only at a direct call
   ({!Transfer.instr}), so the maps restricted to [fd]'s direct callees
   give the same fixpoint. [inputs] renders those values canonically
   (after the zone flag, which a leaf's key would otherwise lack),
   callee by callee: [Aval.to_string] is
   injective and independent of sharing, so equal inputs render
   equally. Absent and present entries render differently, since
   [Transfer.instr] falls back to the callee's type when a summary is
   missing. *)
let inputs ~(summaries : Transfer.summaries) ~(ifaces : Transfer.ifaces) (fd : I.fundec) :
    Transfer.summaries * Transfer.ifaces * string =
  let b = Buffer.create 128 in
  Buffer.add_string b (if ifaces.Transfer.zone then "product" else "interval");
  let sums, ifs =
    List.fold_left
      (fun (sums, ifs) callee ->
        Buffer.add_char b ';';
        Buffer.add_string b callee;
        let sums =
          match Transfer.SM.find_opt callee summaries with
          | Some a ->
              Buffer.add_char b '=';
              Buffer.add_string b (Aval.to_string a);
              Transfer.SM.add callee a sums
          | None -> sums
        in
        let ifs =
          match Transfer.SM.find_opt callee ifaces.Transfer.facts with
          | Some i ->
              Buffer.add_string b (if i.Transfer.ret_nonnull then "!nn" else "!");
              Transfer.SM.add callee i ifs
          | None -> ifs
        in
        (sums, ifs))
      (Transfer.no_summaries, Transfer.SM.empty)
      (direct_callees fd)
  in
  (sums, { ifaces with Transfer.facts = ifs }, Buffer.contents b)

type 'a memo = I.fundec -> inputs:string -> (unit -> 'a) -> 'a Lazy.t

let no_memo _ ~inputs:_ solve = Lazy.from_fun solve

(* Force on the pool only what a memo left unsolved; a warm run with
   one miss never starts it. *)
let force_misses ~jobs (ls : 'a Lazy.t list) : unit =
  ignore (Par.map ~jobs Lazy.force (List.filter (fun l -> not (Lazy.is_val l)) ls))

(* The defined functions reachable from [roots] through one or more
   direct calls, in program order: the summaries the fixpoints of
   [roots] read. A root is in only when some demanded function (or
   root) calls it. *)
let demanded (defined : I.fundec list) (roots : string list) : I.fundec list =
  let by_name = Hashtbl.create 64 in
  List.iter (fun fd -> Hashtbl.replace by_name fd.I.fname fd) defined;
  let seen = Hashtbl.create 64 in
  let rec visit name =
    match Hashtbl.find_opt by_name name with
    | Some fd when not (Hashtbl.mem seen name) ->
        Hashtbl.replace seen name ();
        List.iter visit (direct_callees fd)
    | _ -> ()
  in
  List.iter
    (fun r -> Option.iter (fun fd -> List.iter visit (direct_callees fd)) (Hashtbl.find_opt by_name r))
    roots;
  List.filter (fun fd -> Hashtbl.mem seen fd.I.fname) defined

let compute ?(cfg_of = fun fd -> Dataflow.Cfg.build fd) ?(jobs = 1)
    ?(ifaces = Transfer.no_ifaces) ?roots ?(memo = no_memo) (prog : I.program) :
    Transfer.summaries =
  (* Externs have no body to summarize; leaving them out also keeps
     the allocator special-case in Transfer.instr in charge. A summary
     reads only its direct callees' summaries, so restricting the solve
     to the callee closure of [roots] leaves each summary in it
     unchanged. *)
  let defined = List.filter (fun fd -> not fd.I.fextern) prog.I.funcs in
  let sccs = sccs_of (match roots with None -> defined | Some r -> demanded defined r) in
  let all_ifaces = ifaces in
  List.fold_left
    (fun summaries level ->
      (* A function in this level only reads summaries of strictly
         lower levels, so the pool members never observe each other;
         [cfg_of] must therefore be pure or pre-populated (the engine
         context prefetches its CFG cache before going parallel). The
         [memo] lookups run here, on the calling domain; the pool only
         forces what they left unsolved. The fold below re-merges in
         SCC order, identical to the serial one-SCC-at-a-time
         result. *)
      let solvable, recursive =
        List.partition
          (fun scc -> match scc with [ fd ] -> not (is_self_recursive fd) | _ -> false)
          level
      in
      let pending =
        List.map
          (fun scc ->
            match scc with
            | [ fd ] ->
                let summaries, ifaces, inputs = inputs ~summaries ~ifaces:all_ifaces fd in
                (fd.I.fname, memo fd ~inputs (fun () -> solve_one ~ifaces ~summaries ~cfg_of fd))
            | _ -> assert false)
          solvable
      in
      force_misses ~jobs (List.map snd pending);
      let summaries =
        List.fold_left
          (fun acc (name, ret) -> Transfer.SM.add name (Lazy.force ret) acc)
          summaries pending
      in
      List.fold_left
        (fun summaries scc ->
          List.fold_left
            (fun summaries fd -> Transfer.SM.add fd.I.fname (Transfer.of_ty fd.I.fret) summaries)
            summaries scc)
        summaries recursive)
    Transfer.no_summaries (levels_of sccs)
