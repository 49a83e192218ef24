(* Differential oracle: see the .mli for the contract.  Detection and
   "allowed outcome" rules are deliberately written per fault kind so a
   new taxonomy entry forces a decision in both tables. *)

module Diag = Engine.Diag

type outcome = Completed of int64 | Trapped of Vm.Trap.kind * string

type run_results = {
  base : outcome;
  deputy : outcome;
  deputy_absint : outcome;
  ccount : outcome;
  bad_frees : int;
  ccount_refsafe : outcome;
  rs_bad_frees : int;
}

type violation =
  | Frontend_error of string
  | Missed_fault of Fault.kind * string
  | False_alarm of string
  | Spurious_trap of string
  | Result_mismatch of string
  | Discharge_unsound of string
  | Refsafe_unsound of string

type verdict = {
  diags : (string * Diag.t list) list;
  static_errors : int;
  runs : run_results option;
  detected : (Fault.kind * string) list;
  violations : violation list;
}

let violation_to_string = function
  | Frontend_error m -> "frontend-error: " ^ m
  | Missed_fault (k, fn) ->
      Printf.sprintf "missed-fault: %s in %s not flagged by %s" (Fault.to_string k) fn
        (Fault.owner k)
  | False_alarm m -> "false-alarm: " ^ m
  | Spurious_trap m -> "spurious-trap: " ^ m
  | Result_mismatch m -> "result-mismatch: " ^ m
  | Discharge_unsound m -> "discharge-unsound: " ^ m
  | Refsafe_unsound m -> "refsafe-unsound: " ^ m

let outcome_to_string = function
  | Completed v -> Printf.sprintf "completed (%Ld)" v
  | Trapped (k, m) -> Printf.sprintf "trapped %s: %s" (Vm.Trap.kind_to_string k) m

(* ---- helpers ------------------------------------------------------ *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* Does [analysis] emit a Warning/Error diag mentioning [needle]? *)
let flagged diags ~analysis ~needle =
  match List.assoc_opt analysis diags with
  | None -> false
  | Some ds ->
      List.exists
        (fun (d : Diag.t) ->
          d.Diag.severity <> Diag.Info && contains ~needle d.Diag.message)
        ds

(* A program is statically clean when no analysis raises above Info
   (stackcheck's depth summary is informational by design). *)
let noisy_diags diags =
  List.concat_map
    (fun (_, ds) -> List.filter (fun (d : Diag.t) -> d.Diag.severity <> Diag.Info) ds)
    diags

(* ---- the five dynamic runs ---------------------------------------- *)

let run_main (interp : Vm.Interp.t) : outcome =
  match Vm.Interp.run interp "main" [] with
  | v -> Completed v
  | exception Vm.Trap.Trap (k, m) -> Trapped (k, m)

(* Every run boots, through [Ivy.Pipeline.of_context], a program the
   case's context serves, so the verdict judges exactly what [ivy check]
   reports on and what [ivy boot] runs. Execution never mutates a
   program, so the runs share those programs with the static side. The
   one program no getter serves is the full CCount view (the context
   serves it already thinned by refsafe): that run instruments a
   shallow copy of the base program. *)
let dynamic ctxt : run_results =
  let module P = Ivy.Pipeline in
  let outcome mode = run_main (P.of_context ctxt mode).P.interp in
  (* [main]'s outcome under CCount and the free census's bad-free count. *)
  let counted mode =
    let r = P.of_context ctxt mode in
    let o = run_main r.P.interp in
    (o, (P.free_census r).Vm.Machine.bad)
  in
  let base = outcome P.Base in
  let deputy = outcome P.Deputy in
  let deputy_absint = outcome P.Deputy_absint in
  let ccount, bad_frees = counted (P.Ccount Vm.Cost.Up) in
  let ccount_refsafe, rs_bad_frees = counted (P.Ccount_refsafe Vm.Cost.Up) in
  { base; deputy; deputy_absint; ccount; bad_frees; ccount_refsafe; rs_bad_frees }

(* ---- detection rules (soundness) ---------------------------------- *)

(* Each label must be caught by its owner.  Static analyses must flag
   the host function; runtime-owned classes accept either the static
   error or the instrumented trap/census evidence. *)
let detects ~diags ~static_errors ~(runs : run_results) (kind, fn) =
  match (kind : Fault.kind) with
  | Fault.Atomic_block ->
      flagged diags ~analysis:"blockstop" ~needle:fn
      && (match runs.base with Trapped (Vm.Trap.Blocking_in_atomic, _) -> true | _ -> false)
  | Fault.Oob_write -> (
      static_errors > 0
      || match runs.deputy with Trapped (Vm.Trap.Check_failed, _) -> true | _ -> false)
  | Fault.Dangling_free -> (
      runs.bad_frees > 0
      ||
      match runs.ccount with
      | Trapped ((Vm.Trap.Bad_free | Vm.Trap.Use_after_free | Vm.Trap.Double_free), _) -> true
      | _ -> false)
  | Fault.Lock_inversion ->
      (* the deadlock diag names the lock pair, not the acquiring
         function; any both-orders report must be the injected one
         because clean lock regions share a single global order *)
      flagged diags ~analysis:"locksafe" ~needle:"both orders"
  | Fault.Unchecked_err -> flagged diags ~analysis:"errcheck" ~needle:fn
  | Fault.User_deref -> flagged diags ~analysis:"userck" ~needle:fn
  | Fault.Ref_leak ->
      (* dynamically invisible by construction: only the static
         ownership analysis can catch it *)
      flagged diags ~analysis:"refsafe" ~needle:fn
  | Fault.Double_put -> (
      flagged diags ~analysis:"refsafe" ~needle:fn
      || match runs.ccount with Trapped (Vm.Trap.Double_free, _) -> true | _ -> false)
  | Fault.Put_on_error_path ->
      flagged diags ~analysis:"refsafe" ~needle:fn || runs.rs_bad_frees > 0

(* ---- allowed dynamic behaviour (consistency) ---------------------- *)

(* What may each run legitimately do, given the labels?  Anything else
   is a spurious trap / result mismatch. *)
let check_runs ~labels (runs : run_results) : violation list =
  let kinds = List.map fst labels in
  let has k = List.mem k kinds in
  let vs = ref [] in
  let spurious where o = vs := Spurious_trap (where ^ " " ^ outcome_to_string o) :: !vs in
  (* base: only an atomic-block fault may trap it (the VM's own ground
     truth); an OOB write lands in mapped stack, so it corrupts rather
     than faults, and everything else is semantically invisible. *)
  (match runs.base with
  | Completed _ -> ()
  | Trapped (Vm.Trap.Blocking_in_atomic, _) when has Fault.Atomic_block -> ()
  | Trapped (Vm.Trap.Wild_access, _) when has Fault.Oob_write -> ()
  | Trapped (Vm.Trap.Double_free, _) when has Fault.Double_put -> ()
  | o -> spurious "base:" o);
  (* deputy: additionally, the residual checks catch OOB writes. *)
  (match runs.deputy with
  | Completed _ -> ()
  | Trapped (Vm.Trap.Blocking_in_atomic, _) when has Fault.Atomic_block -> ()
  | Trapped (Vm.Trap.Check_failed, _) when has Fault.Oob_write -> ()
  | Trapped (Vm.Trap.Double_free, _) when has Fault.Double_put -> ()
  | o -> spurious "deputy:" o);
  (* deputy+absint: the discharge pass may only remove checks that can
     never fire, so this run must behave exactly like the deputy run —
     same result, or the same trap with the same message.  Any drift is
     a discharge-soundness bug, reported regardless of labels. *)
  if runs.deputy_absint <> runs.deputy then
    vs :=
      Discharge_unsound
        (Printf.sprintf "deputy=%s deputy+absint=%s"
           (outcome_to_string runs.deputy)
           (outcome_to_string runs.deputy_absint))
      :: !vs;
  (* ccount: bad frees leak (never trap) under the soundness-preserving
     config, so the allowances mirror base. *)
  (match runs.ccount with
  | Completed _ -> ()
  | Trapped (Vm.Trap.Blocking_in_atomic, _) when has Fault.Atomic_block -> ()
  | Trapped (Vm.Trap.Wild_access, _) when has Fault.Oob_write -> ()
  | Trapped (Vm.Trap.Double_free, _) when has Fault.Double_put -> ()
  | o -> spurious "ccount:" o);
  (* ccount+refsafe: the discharge may only remove counter updates the
     census can never observe, so this run must match the full CCount
     run exactly — same outcome AND same bad-free count.  Any drift is
     a refsafe-soundness bug, reported regardless of labels. *)
  if runs.ccount_refsafe <> runs.ccount || runs.rs_bad_frees <> runs.bad_frees then
    vs :=
      Refsafe_unsound
        (Printf.sprintf "ccount=%s (%d bad) ccount+refsafe=%s (%d bad)"
           (outcome_to_string runs.ccount) runs.bad_frees
           (outcome_to_string runs.ccount_refsafe)
           runs.rs_bad_frees)
      :: !vs;
  (* census: only a dangling-free or put-on-error-path label explains
     bad frees. *)
  if runs.bad_frees > 0 && not (has Fault.Dangling_free || has Fault.Put_on_error_path) then
    vs :=
      Spurious_trap (Printf.sprintf "ccount census: %d unexplained bad frees" runs.bad_frees)
      :: !vs;
  (* result agreement: when every run completed, instrumentation must
     not have changed the program's meaning. *)
  (match (runs.base, runs.deputy, runs.ccount) with
  | Completed b, Completed d, Completed c ->
      if not (Int64.equal b d && Int64.equal b c) then
        vs :=
          Result_mismatch (Printf.sprintf "base=%Ld deputy=%Ld ccount=%Ld" b d c) :: !vs
  | _ -> ());
  List.rev !vs

(* ---- the oracle --------------------------------------------------- *)

let check_context ctxt (labels : (Fault.kind * string) list) : verdict =
  (* Pre-compile the program once on the context: the base dynamic run
     below reuses the compiled code through the VM's program cache. *)
  ignore (Engine.Context.vm_compiled ctxt);
  let diags = Ivy.Checks.run_all ctxt in
  let static_errors =
    List.length (snd (Engine.Context.instrumented ctxt)).Deputy.Dreport.static_errors
  in
  let runs = dynamic ctxt in
  let detected = List.filter (detects ~diags ~static_errors ~runs) labels in
  let missed =
    List.filter_map
      (fun l -> if List.mem l detected then None else Some (Missed_fault (fst l, snd l)))
      labels
  in
  let false_alarms =
    if labels <> [] then []
    else
      let noisy =
        List.map
          (fun (d : Diag.t) ->
            False_alarm (Printf.sprintf "%s: %s" d.Diag.analysis d.Diag.message))
          (noisy_diags diags)
      in
      if static_errors > 0 then
        noisy
        @ [
            False_alarm
              (Printf.sprintf "deputy: %d static errors in a clean program" static_errors);
          ]
      else noisy
  in
  let run_violations = check_runs ~labels runs in
  {
    diags;
    static_errors;
    runs = Some runs;
    detected;
    violations = missed @ false_alarms @ run_violations;
  }

let check_source ~name src labels : verdict =
  match Kc.Typecheck.check_sources [ (name, src) ] with
  | exception e ->
      {
        diags = [];
        static_errors = 0;
        runs = None;
        detected = [];
        violations = [ Frontend_error (Printexc.to_string e) ];
      }
  | prog -> check_context (Engine.Context.create prog) labels

let check (p : Prog.t) : verdict =
  check_source ~name:"gen.kc" (Prog.render p) p.Prog.faults

let passes p = (check p).violations = []
