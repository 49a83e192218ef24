(* Deputy pipeline driver and census (paper §2.1 / experiment E1).

   [deputize] runs check generation followed by static discharge on a
   program in place and returns the combined report: how many checks
   were inserted, how many were proven statically, how many remain as
   runtime checks, how much code is trusted, and how many annotations
   the program carries. *)

module I = Kc.Ir

type report = {
  inserted : int; (* checks generated *)
  discharged : int; (* removed by the static optimizer *)
  residual : int; (* left as runtime checks *)
  derefs_seen : int;
  trusted_ops : int;
  unresolved_ops : int;
  static_errors : (string * Kc.Loc.t) list;
  annotations : int; (* type + function annotations in the source *)
  trusted_blocks : int;
  functions : int;
}

let count_type_annotations (prog : I.program) : int =
  let n = ref 0 in
  List.iter
    (fun (_, (c : I.compinfo)) ->
      List.iter (fun (f : I.fieldinfo) -> n := !n + Annot.count_annotations f.I.fty) c.I.cfields)
    (Kc.Pretty.sorted_bindings prog.I.comps);
  List.iter (fun ((v : I.varinfo), _) -> n := !n + Annot.count_annotations v.I.vty) prog.I.globals;
  List.iter
    (fun (_, (fd : I.fundec)) ->
      List.iter (fun (v : I.varinfo) -> n := !n + Annot.count_annotations v.I.vty) fd.I.sformals;
      n := !n + List.length fd.I.fannots)
    (Kc.Pretty.sorted_bindings prog.I.fun_by_name);
  List.iter
    (fun (fd : I.fundec) ->
      List.iter
        (fun (v : I.varinfo) -> if not v.I.vtemp then n := !n + Annot.count_annotations v.I.vty)
        fd.I.slocals)
    prog.I.funcs;
  !n

let count_trusted_blocks (prog : I.program) : int =
  let n = ref 0 in
  List.iter
    (fun (fd : I.fundec) ->
      if List.mem Kc.Ast.Ftrusted fd.I.fannots then incr n;
      I.iter_stmts
        (fun s -> match s.I.sk with I.Strusted _ -> incr n | _ -> ())
        fd.I.fbody)
    prog.I.funcs;
  !n

(* Run the full Deputy pipeline on [prog] in place. *)
let deputize ?(optimize = true) (prog : I.program) : report =
  let annotations = count_type_annotations prog in
  let trusted_blocks = count_trusted_blocks prog in
  let istats = Instrument.instrument_program prog in
  let ostats =
    if optimize then Optimize.optimize_program prog
    else begin
      (* Count residual checks without removing any. *)
      let s = Optimize.new_stats () in
      List.iter
        (fun (fd : I.fundec) ->
          I.iter_instrs
            (fun i -> match i with I.Icheck _ -> s.Optimize.kept <- s.Optimize.kept + 1 | _ -> ())
            fd.I.fbody)
        prog.I.funcs;
      s
    end
  in
  {
    inserted = Instrument.total_checks istats;
    discharged = ostats.Optimize.discharged;
    residual = ostats.Optimize.kept;
    derefs_seen = istats.Instrument.derefs_seen;
    trusted_ops = istats.Instrument.trusted_ops;
    unresolved_ops = istats.Instrument.unresolved_ops;
    static_errors = istats.Instrument.static_errors;
    annotations;
    trusted_blocks;
    functions = istats.Instrument.functions_instrumented;
  }

let pp fmt (r : report) =
  Format.fprintf fmt
    "deputy: %d functions, %d derefs@ checks: %d inserted, %d discharged statically (%.1f%%), %d \
     runtime@ annotations: %d, trusted blocks: %d, trusted ops: %d, unresolved: %d, static \
     errors: %d"
    r.functions r.derefs_seen r.inserted r.discharged
    (if r.inserted = 0 then 0.0 else 100.0 *. float_of_int r.discharged /. float_of_int r.inserted)
    r.residual r.annotations r.trusted_blocks r.trusted_ops r.unresolved_ops
    (List.length r.static_errors)
