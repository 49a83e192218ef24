(* Per-function fixpoint: the Env lattice solved over the function's
   CFG with the widening worklist, widening at back-edge targets and
   refining branch edges with Transfer.assume. *)

module I = Kc.Ir
module Cfg = Dataflow.Cfg
module W = Dataflow.Worklist.Make_widening (Env)

type fresult = {
  cfg : Cfg.t;
  before : Env.t array; (* per node id *)
  after : Env.t array;
  iterations : int;
  widen_points : int;
}

(* Targets of back edges: gray-marking DFS over the successor graph.
   Every CFG cycle passes through at least one such node, so widening
   there is enough for termination. *)
let back_edge_targets (cfg : Cfg.t) : bool array =
  let n = Cfg.n_nodes cfg in
  let target = Array.make n false in
  let color = Array.make n 0 (* 0 white, 1 gray, 2 black *) in
  let rec dfs i =
    color.(i) <- 1;
    List.iter
      (fun s ->
        if color.(s) = 0 then dfs s else if color.(s) = 1 then target.(s) <- true)
      (Cfg.node cfg i).Cfg.succs;
    color.(i) <- 2
  in
  dfs cfg.Cfg.entry;
  target

let transfer ~ifaces summaries (node : Cfg.node) (env : Env.t) : Env.t =
  List.fold_left (fun env (i, _loc) -> Transfer.instr ~ifaces summaries env i) env node.Cfg.instrs

(* Branch conditions refine their outgoing edges: succs of a Tcond are
   [then; else] in that order. *)
let edge ~ifaces (node : Cfg.node) (idx : int) (out : Env.t) : Env.t =
  match node.Cfg.term with
  | Cfg.Tcond e when List.length node.Cfg.succs = 2 -> Transfer.assume ~ifaces out e (idx = 0)
  | _ -> out

(* Delay widening for two visits at each widening point: early
   worklist visits propagate transient bounds (a variable ascending
   once while an earlier loop stabilizes), and widening against those
   destroys limits narrowing cannot recover. Two join rounds let the
   rest of the CFG settle first; termination is a finite per-node
   budget away from the undelayed proof. *)
let widen_delay = 2

let analyze_cfg ?(summaries = Transfer.no_summaries) ?(ifaces = Transfer.no_ifaces)
    (cfg : Cfg.t) : fresult =
  let widen_at = back_edge_targets cfg in
  let r =
    W.solve cfg ~widen_delay ~widen_at ~init:Env.empty ~transfer:(transfer ~ifaces summaries)
      ~edge:(edge ~ifaces)
  in
  {
    cfg;
    before = r.W.before;
    after = r.W.after;
    iterations = r.W.iterations;
    widen_points = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 widen_at;
  }

let analyze ?summaries ?ifaces (fd : I.fundec) : fresult =
  analyze_cfg ?summaries ?ifaces (Cfg.build fd)

(* Join of the abstract values flowing into every reachable return of
   [fd], normed to the return type; used to summarize calls. A
   [return;] or falling off the end yields 0, as in the VM. *)
let return_aval (fd : I.fundec) (r : fresult) : Aval.t =
  let acc = ref Aval.bottom in
  Array.iter
    (fun (node : Cfg.node) ->
      let env = r.after.(node.Cfg.nid) in
      match node.Cfg.term with
      | Cfg.Treturn e when not (Env.is_unreachable env) ->
          let v = match e with Some e -> Transfer.eval env e | None -> Aval.of_const 0L in
          acc := Aval.join !acc v
      | _ -> ())
    r.cfg.Cfg.nodes;
  if Aval.is_bot !acc then Transfer.of_ty fd.I.fret
  else Transfer.norm_aval fd.I.fret !acc
