(* Forward finite-state checkers over function CFGs (see fsm.mli).
   Effects only grow: a solve joins the exit state into the effect, and
   the callers are solved again when the effect they see changed. So
   the fixpoint terminates, and each last solve saw the final effects. *)

module I = Kc.Ir

module type STATE = sig
  include Worklist.LATTICE

  val entry : t
end

module Make (S : STATE) = struct
  module W = Worklist.Make (S)

  type step = effect:(string -> S.t option) -> I.instr -> S.t -> S.t

  let solve ~cfg_of ~(step : step) (prog : I.program) =
    let defined = List.filter (fun (fd : I.fundec) -> not fd.I.fextern) prog.I.funcs in
    let n = List.length defined in
    let effects = Hashtbl.create n and solved = Hashtbl.create n and callers = Hashtbl.create n in
    List.iter (fun (fd : I.fundec) -> Hashtbl.replace effects fd.I.fname S.bottom) defined;
    (* Only a function that calls something is solved: elsewhere the
       state stays [entry]. *)
    let fns =
      List.filter_map
        (fun (fd : I.fundec) ->
          let fn = (fd, cfg_of fd) and calls = ref false in
          let add = function
            | I.Icall (_, I.Direct g, _), _ when Hashtbl.mem effects g ->
                calls := true;
                if not (List.memq fn (Hashtbl.find_all callers g)) then Hashtbl.add callers g fn
            | I.Icall _, _ -> calls := true
            | _ -> ()
          in
          Array.iter (fun (nd : Cfg.node) -> List.iter add nd.Cfg.instrs) (snd fn).Cfg.nodes;
          if !calls then Some fn else None)
        defined
    in
    let seen e = if S.equal e S.bottom then S.entry else e in
    let effect g = Option.map seen (Hashtbl.find_opt effects g) in
    let reached s = not (S.equal s S.bottom) in
    let step_instr s = function (I.Icall _ as i), _ when reached s -> step ~effect i s | _ -> s in
    let transfer (nd : Cfg.node) s = List.fold_left step_instr s nd.Cfg.instrs in
    let rec solve_fn ((fd : I.fundec), (cfg : Cfg.t)) =
      let r = W.solve cfg ~init:S.entry ~transfer in
      Hashtbl.replace solved fd.I.fname (cfg, r.W.before);
      let old = Hashtbl.find effects fd.I.fname in
      let e = S.join old r.W.before.(cfg.Cfg.exit_) in
      Hashtbl.replace effects fd.I.fname e;
      if not (S.equal (seen e) (seen old)) then
        List.iter solve_fn (Hashtbl.find_all callers fd.I.fname)
    in
    List.iter
      (fun (((fd : I.fundec), _) as fn) ->
        if not (Hashtbl.mem solved fd.I.fname) then solve_fn fn)
      fns;
    (* Replay each node from its entry state, then put the reached
       calls in source order. *)
    let rec go s acc = function
      | [] -> acc
      | ((I.Icall _ as i), loc) :: rest when reached s ->
          go (step ~effect i s) ((i, loc, s) :: acc) rest
      | _ :: rest -> go s acc rest
    in
    let replay ((cfg : Cfg.t), before) =
      let node acc (nd : Cfg.node) = go before.(nd.Cfg.nid) acc nd.Cfg.instrs in
      List.rev (Array.fold_left node [] cfg.Cfg.nodes)
      |> List.stable_sort (fun (_, a, _) (_, b, _) -> Kc.Loc.compare a b)
    in
    List.map
      (fun (fd : I.fundec) ->
        (fd, Option.fold ~none:[] ~some:replay (Hashtbl.find_opt solved fd.I.fname)))
      defined
end
