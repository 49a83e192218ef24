(* Control-flow graphs over the structured KC IR.

   KC has no goto, so the CFG is built by a single recursive pass with
   explicit break/continue targets. Basic blocks hold located
   instructions; terminators carry the branching expression where one
   exists. Node 0 is always the entry; there is a single synthetic
   exit node that all returns feed. *)

type terminator =
  | Tjump (* unconditional; single successor *)
  | Tcond of Kc.Ir.exp (* successors: [then; else] *)
  | Tswitch of Kc.Ir.exp (* successors: in case order, then default/join *)
  | Treturn of Kc.Ir.exp option (* successor: exit node *)

type node = {
  nid : int;
  mutable instrs : (Kc.Ir.instr * Kc.Loc.t) list; (* in execution order *)
  mutable term : terminator;
  mutable succs : int list;
  mutable preds : int list;
}

type t = {
  fname : string;
  mutable nodes : node array;
  entry : int;
  exit_ : int;
}

type builder = { mutable bnodes : node list; mutable count : int }

let new_node b =
  let n = { nid = b.count; instrs = []; term = Tjump; succs = []; preds = [] } in
  b.count <- b.count + 1;
  b.bnodes <- n :: b.bnodes;
  n

let link a b =
  a.succs <- a.succs @ [ b.nid ];
  b.preds <- a.nid :: b.preds

type loop_ctx = { brk : node; cont : node }

(* Process [block] starting in [cur]; returns the node where control
   continues after the block. *)
let rec do_block b (cur : node) (ctx : loop_ctx option) (exit_ : node) (block : Kc.Ir.block) : node
    =
  List.fold_left (fun cur s -> do_stmt b cur ctx exit_ s) cur block

and do_stmt b (cur : node) (ctx : loop_ctx option) (exit_ : node) (s : Kc.Ir.stmt) : node =
  match s.Kc.Ir.sk with
  | Kc.Ir.Sinstr i ->
      cur.instrs <- cur.instrs @ [ (i, s.Kc.Ir.sloc) ];
      cur
  | Kc.Ir.Sif (c, b1, b2) ->
      cur.term <- Tcond c;
      let then_start = new_node b and else_start = new_node b and join = new_node b in
      link cur then_start;
      link cur else_start;
      let then_end = do_block b then_start ctx exit_ b1 in
      let else_end = do_block b else_start ctx exit_ b2 in
      link then_end join;
      link else_end join;
      join
  | Kc.Ir.Swhile (c, body, step) ->
      let head = new_node b in
      link cur head;
      head.term <- Tcond c;
      let body_start = new_node b and step_node = new_node b and join = new_node b in
      link head body_start;
      link head join;
      let loop_ctx = Some { brk = join; cont = step_node } in
      let body_end = do_block b body_start loop_ctx exit_ body in
      link body_end step_node;
      let step_end =
        List.fold_left (fun cur s1 -> do_stmt b cur ctx exit_ s1) step_node step
      in
      link step_end head;
      join
  | Kc.Ir.Sdowhile (body, c) ->
      let body_start = new_node b and cond_node = new_node b and join = new_node b in
      link cur body_start;
      let loop_ctx = Some { brk = join; cont = cond_node } in
      let body_end = do_block b body_start loop_ctx exit_ body in
      link body_end cond_node;
      cond_node.term <- Tcond c;
      link cond_node body_start;
      link cond_node join;
      join
  | Kc.Ir.Sswitch (e, cases) ->
      cur.term <- Tswitch e;
      let join = new_node b in
      let loop_ctx =
        (* break inside switch exits the switch; continue still refers
           to the enclosing loop. *)
        match ctx with
        | Some c -> Some { brk = join; cont = c.cont }
        | None -> Some { brk = join; cont = join (* no enclosing loop; checker rejects *) }
      in
      let case_starts = List.map (fun _ -> new_node b) cases in
      List.iter (fun n -> link cur n) case_starts;
      let has_default = List.exists (fun (c : Kc.Ir.case) -> c.Kc.Ir.cdefault) cases in
      if not has_default then link cur join;
      (* Fallthrough: each case body's end links to the next case start. *)
      let rec wire starts cases =
        match (starts, cases) with
        | [], [] -> ()
        | start :: rest_starts, (c : Kc.Ir.case) :: rest_cases ->
            let body_end = do_block b start loop_ctx exit_ c.Kc.Ir.cbody in
            (match rest_starts with
            | next :: _ -> link body_end next
            | [] -> link body_end join);
            wire rest_starts rest_cases
        | _ -> assert false
      in
      wire case_starts cases;
      join
  | Kc.Ir.Sbreak -> (
      match ctx with
      | Some c ->
          link cur c.brk;
          new_node b (* unreachable continuation *)
      | None -> invalid_arg "break outside loop/switch")
  | Kc.Ir.Scontinue -> (
      match ctx with
      | Some c ->
          link cur c.cont;
          new_node b
      | None -> invalid_arg "continue outside loop")
  | Kc.Ir.Sreturn e ->
      cur.term <- Treturn e;
      link cur exit_;
      new_node b
  | Kc.Ir.Sblock b1 | Kc.Ir.Sdelayed b1 | Kc.Ir.Strusted b1 -> do_block b cur ctx exit_ b1

let build (fd : Kc.Ir.fundec) : t =
  let b = { bnodes = []; count = 0 } in
  let entry = new_node b in
  let exit_ = new_node b in
  let last = do_block b entry None exit_ fd.Kc.Ir.fbody in
  (* Implicit return at the end of the function body. *)
  last.term <- Treturn None;
  link last exit_;
  let nodes = Array.make b.count entry in
  List.iter (fun n -> nodes.(n.nid) <- n) b.bnodes;
  { fname = fd.Kc.Ir.fname; nodes; entry = entry.nid; exit_ = exit_.nid }

let n_nodes cfg = Array.length cfg.nodes
let node cfg i = cfg.nodes.(i)

(* Nodes reachable from the entry, in reverse-postorder. *)
let reverse_postorder (cfg : t) : int list =
  let seen = Array.make (n_nodes cfg) false in
  let order = ref [] in
  let rec dfs i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter dfs (node cfg i).succs;
      order := i :: !order
    end
  in
  dfs cfg.entry;
  !order

let reachable (cfg : t) : bool array =
  let seen = Array.make (n_nodes cfg) false in
  let rec dfs i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter dfs (node cfg i).succs
    end
  in
  dfs cfg.entry;
  seen
