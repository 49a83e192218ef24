(* Second-stage check discharge: replay each function's abstract
   fixpoint over its instructions and delete every Deputy-inserted
   Icheck the interval facts prove can never fire.

   Soundness: a check is removed only when, at its program point, the
   over-approximated abstract state admits no concrete state in which
   the check's predicate is false (or the point is unreachable, in
   which case the check never executes at all). The CFG shares the
   stmt tree's instr values physically, so removal is by physical
   identity — structurally equal checks at different points are
   treated independently. Runs after Deputy.Optimize, so everything
   the Facts pass discharges is already gone: the combined pipeline
   trivially subsumes Facts alone. *)

module I = Kc.Ir
module Cfg = Dataflow.Cfg

type fstat = {
  fname : string;
  seen : int; (* residual checks entering this pass *)
  proved : int; (* ... removed by the product domain *)
  proved_iv : int; (* ... by the interval component alone *)
  proved_rel : int; (* ... only with the zone's relational facts *)
  iterations : int;
  widen_points : int;
}

type stats = { fstats : fstat list }

let total f stats = List.fold_left (fun acc s -> acc + f s) 0 stats.fstats
let checks_seen = total (fun s -> s.seen)
let checks_proved = total (fun s -> s.proved)
let checks_proved_iv = total (fun s -> s.proved_iv)
let checks_proved_rel = total (fun s -> s.proved_rel)

let rate stats =
  let seen = checks_seen stats in
  if seen = 0 then 0.0 else 100.0 *. float_of_int (checks_proved stats) /. float_of_int seen

(* The checks of a body, in iter_instrs order. *)
let checks_of (b : I.block) : I.instr list =
  let acc = ref [] in
  I.iter_instrs (fun i -> match i with I.Icheck _ -> acc := i :: !acc | _ -> ()) b;
  List.rev !acc

(* Collect the checks provable at their program point by replaying the
   fixpoint through each node's instruction list, tagged with which
   component of the product proved them ({!Transfer.provable_why}
   tries the interval rule first, so [P_relational] counts only
   zone-exclusive proofs). A node without a check has nothing to
   prove, so its replay is skipped. *)
let provable_checks ~ifaces ~summaries (r : Solver.fresult) :
    (I.instr * Transfer.proof) list =
  let removable = ref [] in
  let is_check (i, _loc) = match i with I.Icheck _ -> true | _ -> false in
  Array.iter
    (fun (node : Cfg.node) ->
      if List.exists is_check node.Cfg.instrs then begin
        let env = ref r.Solver.before.(node.Cfg.nid) in
        List.iter
          (fun (i, _loc) ->
            (match i with
            | I.Icheck (ck, _) -> (
                match Transfer.provable_why ~ifaces !env ck with
                | Some p -> removable := (i, p) :: !removable
                | None -> ())
            | _ -> ());
            env := Transfer.instr ~ifaces summaries !env i)
          node.Cfg.instrs
      end)
    r.Solver.cfg.Cfg.nodes;
  !removable

let rec filter_block removable (b : I.block) : I.block =
  List.filter_map (filter_stmt removable) b

and filter_stmt removable (s : I.stmt) : I.stmt option =
  match s.I.sk with
  | I.Sinstr (I.Icheck _ as i) when List.memq i removable -> None
  | I.Sinstr _ | I.Sbreak | I.Scontinue | I.Sreturn _ -> Some s
  | I.Sif (c, b1, b2) ->
      Some { s with I.sk = I.Sif (c, filter_block removable b1, filter_block removable b2) }
  | I.Swhile (c, body, step) ->
      Some
        { s with I.sk = I.Swhile (c, filter_block removable body, filter_block removable step) }
  | I.Sdowhile (body, c) -> Some { s with I.sk = I.Sdowhile (filter_block removable body, c) }
  | I.Sswitch (e, cases) ->
      Some
        {
          s with
          I.sk =
            I.Sswitch
              (e, List.map (fun c -> { c with I.cbody = filter_block removable c.I.cbody }) cases);
        }
  | I.Sblock b1 -> Some { s with I.sk = I.Sblock (filter_block removable b1) }
  | I.Sdelayed b1 -> Some { s with I.sk = I.Sdelayed (filter_block removable b1) }
  | I.Strusted b1 -> Some { s with I.sk = I.Strusted (filter_block removable b1) }

(* A proof verdict for one function, independent of its IR values: the
   ordinals (among the body's checks, in {!Kc.Ir.iter_instrs} order) of
   the checks proved, with how, plus the function's counters. A
   re-parse and re-instrumentation of the same body yields the same
   checks in the same order, so a verdict carries over to it. *)
type verdict = { proved_at : (int * Transfer.proof) list; fstat : fstat }

(* A function with no residual check has nothing to discharge: no
   fixpoint runs, and its iteration and widening counts stay 0. Never
   mutates [fd]. *)
let verdict ?(ifaces = Transfer.no_ifaces) ~summaries (fd : I.fundec) : verdict =
  let checks = checks_of fd.I.fbody in
  let seen = List.length checks in
  if seen = 0 then
    {
      proved_at = [];
      fstat =
        { fname = fd.I.fname; seen; proved = 0; proved_iv = 0; proved_rel = 0; iterations = 0;
          widen_points = 0 };
    }
  else
    let r = Solver.analyze ~summaries ~ifaces fd in
    let tagged = provable_checks ~ifaces ~summaries r in
    let count p = List.length (List.filter (fun (_, q) -> q = p) tagged) in
    {
      proved_at =
        List.concat
          (List.mapi
             (fun n i -> match List.assq_opt i tagged with Some p -> [ (n, p) ] | None -> [])
             checks);
      fstat =
        {
          fname = fd.I.fname;
          seen;
          proved = List.length tagged;
          proved_iv = count Transfer.P_interval;
          proved_rel = count Transfer.P_relational;
          iterations = r.Solver.iterations;
          widen_points = r.Solver.widen_points;
        };
    }

(* Remove the checks at the verdict's ordinals from [fd]'s body. *)
let apply (fd : I.fundec) (v : verdict) : unit =
  if v.proved_at <> [] then begin
    let removable =
      List.concat
        (List.mapi
           (fun n i -> if List.mem_assoc n v.proved_at then [ i ] else [])
           (checks_of fd.I.fbody))
    in
    fd.I.fbody <- filter_block removable fd.I.fbody
  end

(* The defined functions that still hold a check: the only ones whose
   fixpoint runs, hence the roots of the summaries discharge reads. *)
let residual_roots (prog : I.program) : string list =
  List.filter_map
    (fun fd -> if (not fd.I.fextern) && checks_of fd.I.fbody <> [] then Some fd.I.fname else None)
    prog.I.funcs

(* Discharge over every defined function of an (already deputized and
   Facts-optimized) program, in place, under one domain ([ifaces],
   the product by default) for summaries and fixpoints alike; the
   summaries are demanded only from the functions holding a residual
   check. Each such function is solved over its {!Summary.inputs}
   through [memo], on the calling domain; the pool forces the
   suspensions, and the verdicts are applied serially in program
   order. *)
let run ?summaries ?(ifaces = Transfer.no_ifaces) ?(jobs = 1) ?(memo = Summary.no_memo)
    (prog : I.program) : stats =
  let summaries =
    match summaries with
    | Some s -> s
    | None -> Summary.compute ~ifaces ~roots:(residual_roots prog) prog
  in
  let pending =
    List.filter_map
      (fun fd ->
        if fd.I.fextern then None
        else if checks_of fd.I.fbody = [] then
          Some (fd, Lazy.from_val (verdict ~summaries fd))
        else
          let summaries, inputs = Summary.inputs ~summaries ~ifaces fd in
          Some (fd, memo fd ~inputs (fun () -> verdict ~ifaces ~summaries fd)))
      prog.I.funcs
  in
  Summary.force_misses ~jobs (List.map snd pending);
  {
    fstats =
      List.map
        (fun (fd, v) ->
          let v = Lazy.force v in
          apply fd v;
          v.fstat)
        pending;
  }

let render_stats (stats : stats) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-24s %8s %8s %8s %8s\n" "function" "checks" "proved" "iters" "widen");
  List.iter
    (fun s ->
      (* no residual check, no fixpoint: nothing to count *)
      let fix n = if s.seen = 0 then "-" else string_of_int n in
      Buffer.add_string buf
        (Printf.sprintf "%-24s %8d %8d %8s %8s\n" s.fname s.seen s.proved (fix s.iterations)
           (fix s.widen_points)))
    stats.fstats;
  Buffer.add_string buf
    (Printf.sprintf
       "absint: proved %d of %d residual checks (%.1f%% discharge rate; intervals %d + \
        relational %d)\n"
       (checks_proved stats) (checks_seen stats) (rate stats) (checks_proved_iv stats)
       (checks_proved_rel stats));
  Buffer.contents buf
