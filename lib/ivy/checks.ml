(* The registry of engine analyses: each of the seven whole-program
   checkers wrapped as an [Engine.Analysis.S], obtaining every
   expensive artifact through the shared [Engine.Context] (so one
   [ivy check] run builds the call graph and points-to once per mode,
   no matter how many analyses consume them) and reporting findings as
   unified [Engine.Diag.t] values. *)

module Context = Engine.Context
module Diag = Engine.Diag

(* The context's memoized CFGs, so a check records an edge to each. *)
let cfg_of ctxt (fd : Kc.Ir.fundec) =
  match Context.cfg ctxt fd.Kc.Ir.fname with Some c -> c | None -> Dataflow.Cfg.build fd

(* ---- blockstop: may-block calls reachable in atomic context ---- *)

let blockstop : Engine.Analysis.t =
  (module struct
    let name = "blockstop"
    let doc = "blocking calls reachable with interrupts disabled (paper §2.3)"

    let run ctxt =
      let bl = Context.blocking ctxt in
      let result = Blockstop.Atomic.analyze ~cfg_of:(cfg_of ctxt) bl in
      (* One diagnostic per (site, containing function, callee): several
         witness paths through the same call site count once. *)
      let sites =
        List.sort_uniq compare
          (List.map
             (fun (w : Blockstop.Atomic.warning) ->
               ( w.Blockstop.Atomic.w_loc,
                 w.Blockstop.Atomic.w_in,
                 w.Blockstop.Atomic.w_callee,
                 w.Blockstop.Atomic.w_via ))
             result.Blockstop.Atomic.warnings)
      in
      List.map
        (fun (loc, in_fn, callee, via) ->
          Diag.make ~analysis:name ~loc
            ~fix_hint:
              (Printf.sprintf "guard %s with assert_not_atomic or make the call non-blocking"
                 in_fn)
            (Printf.sprintf "%s may block in atomic context of %s%s" callee in_fn
               (match via with
               | Blockstop.Callgraph.Direct -> ""
               | Blockstop.Callgraph.Via_fptr -> " (call via function pointer)")))
        sites
  end)

(* ---- locksafe: lock-order cycles and irq-vs-process spinlocks ---- *)

let locksafe : Engine.Analysis.t =
  (module struct
    let name = "locksafe"
    let doc = "deadlock order and irq/process spinlock invariant (paper §3.1)"

    let run ctxt =
      let prog = Context.program ctxt in
      let r =
        Locksafe.analyze ~cfg_of:(cfg_of ctxt) ~handlers:(Context.irq_handlers ctxt) prog
      in
      let edge_loc a b =
        match
          List.find_opt
            (fun (e : Locksafe.order_edge) ->
              e.Locksafe.from_lock = a && e.Locksafe.to_lock = b)
            r.Locksafe.order_edges
        with
        | Some e -> e.Locksafe.where
        | None -> Kc.Loc.dummy
      in
      let deadlocks =
        List.map
          (fun (a, b) ->
            Diag.make ~analysis:name ~severity:Diag.Error ~loc:(edge_loc a b)
              ~fix_hint:(Printf.sprintf "always acquire %s before %s (or vice versa)" a b)
              (Printf.sprintf "locks %s and %s are acquired in both orders (deadlock risk)" a b))
          r.Locksafe.deadlock_cycles
      in
      let irq_unsafe =
        List.map
          (fun (lock, (a : Locksafe.acquire)) ->
            Diag.make ~analysis:name ~loc:a.Locksafe.a_loc
              ~fix_hint:"use spin_lock_irqsave here"
              (Printf.sprintf
                 "lock %s is used in interrupt context but taken in %s without disabling \
                  interrupts"
                 lock a.Locksafe.a_in))
          r.Locksafe.irq_unsafe
      in
      deadlocks @ irq_unsafe
  end)

(* ---- stackcheck: bounded stack depth for every call chain ---- *)

let stackcheck : Engine.Analysis.t =
  (module struct
    let name = "stackcheck"
    let doc = "stack budget of every call chain; recursion detection (paper §3.1)"

    let floc prog f =
      match Kc.Ir.find_fun prog f with
      | Some fd -> fd.Kc.Ir.floc
      | None -> Kc.Loc.dummy

    let run ctxt =
      let prog = Context.program ctxt in
      let cg = Context.callgraph ~mode:Blockstop.Pointsto.Field_based ctxt in
      let r = Stackcheck.analyze ~cg prog in
      let recursion =
        List.map
          (fun f ->
            Diag.make ~analysis:name ~loc:(floc prog f)
              ~fix_hint:"insert a runtime depth check at the recursive entry"
              (Printf.sprintf "%s is on a call cycle: static stack depth is unbounded" f))
          (Stackcheck.needs_runtime_check r)
      in
      let over_budget =
        match Stackcheck.SM.find_opt "start_kernel" r.Stackcheck.depths with
        | Some d when d > 8192 ->
            [
              Diag.make ~analysis:name ~severity:Diag.Error ~loc:(floc prog "start_kernel")
                ~fix_hint:"shrink frames on the worst chain or raise the stack budget"
                (Printf.sprintf "boot entry needs %d bytes of stack, over the 8 kB budget" d);
            ]
        | _ -> []
      in
      let summary =
        if r.Stackcheck.worst_chain = [] then []
        else
          [
            Diag.make ~analysis:name ~severity:Diag.Info
              ~loc:(floc prog (List.hd r.Stackcheck.worst_chain))
              (Printf.sprintf "deepest bounded call chain: %d bytes (%s)"
                 r.Stackcheck.worst_bytes
                 (String.concat " -> " r.Stackcheck.worst_chain));
          ]
      in
      recursion @ over_budget @ summary
  end)

(* ---- errcheck: every error return accounted for ---- *)

let errcheck : Engine.Analysis.t =
  (module struct
    let name = "errcheck"
    let doc = "error-code returns checked at every call site (paper §3.1)"

    let run ctxt =
      let r = Errcheck.analyze (Context.program ctxt) in
      List.map
        (fun (s : Errcheck.site) ->
          Diag.make ~analysis:name ~loc:s.Errcheck.s_loc
            ~fix_hint:(Printf.sprintf "test the result of %s against its error codes" s.Errcheck.s_callee)
            (Printf.sprintf "%s %s error result of %s" s.Errcheck.s_caller
               (match s.Errcheck.s_kind with
               | `Ignored -> "discards"
               | `Unchecked -> "binds but never tests")
               s.Errcheck.s_callee))
        r.Errcheck.violations
  end)

(* ---- userck: user/kernel pointer discipline ---- *)

let userck : Engine.Analysis.t =
  (module struct
    let name = "userck"
    let doc = "__user pointers never dereferenced or laundered (paper §3.1)"

    let run ctxt =
      let r = Userck.analyze (Context.program ctxt) in
      List.map
        (fun (v : Userck.violation) ->
          Diag.make ~analysis:name ~severity:Diag.Error ~loc:v.Userck.v_loc
            ~fix_hint:
              (match v.Userck.v_kind with
              | Userck.Deref -> "stage the access through copy_from_user/copy_to_user"
              | Userck.User_to_kernel | Userck.Kernel_to_user ->
                  "keep the __user qualifier, or bless the value inside a __trusted region")
            (Printf.sprintf "in %s: %s (%s)" v.Userck.v_fn
               (Userck.kind_to_string v.Userck.v_kind)
               v.Userck.v_what))
        r.Userck.violations
  end)

(* ---- absint: interval fixpoint + static check discharge ---- *)

let absint : Engine.Analysis.t =
  (module struct
    let name = "absint"
    let doc = "interval abstract interpretation discharging Deputy checks (paper §2.2)"

    (* Reports are informational: what the deputized view looks like
       once the interval facts have removed the provably redundant
       checks. A campaign summary plus one line per function where the
       second stage proved something. *)
    let run ctxt =
      let d = Context.deputized ctxt in
      let stats = d.Context.dstats in
      let inserted = d.Context.dreport.Deputy.Dreport.inserted in
      if inserted = 0 then []
      else
        let facts = d.Context.dreport.Deputy.Dreport.discharged in
        let proved = Absint.Discharge.checks_proved stats in
        let proved_iv = Absint.Discharge.checks_proved_iv stats in
        let proved_rel = Absint.Discharge.checks_proved_rel stats in
        let floc f =
          match Kc.Ir.find_fun (Context.program ctxt) f with
          | Some fd -> fd.Kc.Ir.floc
          | None -> Kc.Loc.dummy
        in
        let summary =
          Diag.make ~analysis:name ~severity:Diag.Info ~loc:Kc.Loc.dummy
            (Printf.sprintf
               "discharged %d of %d inserted checks (facts %d + intervals %d + relational %d); \
                %d dynamic checks remain"
               (facts + proved) inserted facts proved_iv proved_rel
               (inserted - facts - proved))
        in
        let per_fun =
          List.filter_map
            (fun (s : Absint.Discharge.fstat) ->
              if s.Absint.Discharge.proved = 0 then None
              else
                Some
                  (Diag.make ~analysis:name ~severity:Diag.Info ~loc:(floc s.Absint.Discharge.fname)
                     (Printf.sprintf
                        "%s: proved %d of %d residual checks (%d fixpoint iterations, %d widening \
                         points)"
                        s.Absint.Discharge.fname s.Absint.Discharge.proved s.Absint.Discharge.seen
                        s.Absint.Discharge.iterations s.Absint.Discharge.widen_points)))
            stats.Absint.Discharge.fstats
        in
        summary :: per_fun
  end)

(* ---- refsafe: static refcount/ownership imbalances + CCount discharge ---- *)

let refsafe : Engine.Analysis.t =
  (module struct
    let name = "refsafe"
    let doc = "refcount ownership imbalances; discharges CCount updates (paper §2.2)"

    let fix_hint_of = function
      | Refsafe.Ownership.Double_put -> "drop the second put; ownership ended at the first"
      | Refsafe.Ownership.Put_on_error_path ->
          "retire the published global reference before releasing the object"
      | Refsafe.Ownership.Missing_put -> "release the allocation before the error return"
      | Refsafe.Ownership.Leak -> "release or publish the allocation before returning"

    let run ctxt =
      let summaries = Context.refsafe_summaries ctxt in
      let prog = Context.program ctxt in
      let findings = Refsafe.Ownership.check_program ~cfg_of:(cfg_of ctxt) summaries prog in
      let warnings =
        List.map
          (fun (f : Refsafe.Ownership.finding) ->
            Diag.make ~analysis:name ~loc:f.Refsafe.Ownership.floc
              ~fix_hint:(fix_hint_of f.Refsafe.Ownership.fkind)
              f.Refsafe.Ownership.fmsg)
          findings
      in
      (* The CCount-discharge census rides along as an Info line, like
         absint's: silent when the program has nothing instrumented. *)
      let st = (Context.ccount_discharged ctxt).Context.crstats in
      let summary =
        if st.Refsafe.Discharge.updates_seen = 0 then []
        else
          [
            (* render_stats already opens with "refsafe: "; strip it so
               the [analysis] prefix doesn't repeat. *)
            Diag.make ~analysis:name ~severity:Diag.Info ~loc:Kc.Loc.dummy
              (String.trim
                 (let s = Refsafe.Discharge.render_stats st in
                  if String.length s > 9 && String.sub s 0 9 = "refsafe: " then
                    String.sub s 9 (String.length s - 9)
                  else s));
          ]
      in
      Diag.sort warnings @ summary
  end)

(* ---- the registry ---- *)

(* absint and refsafe are registered last, in this order: consumers
   lock the JSON key order. *)
let all : Engine.Analysis.t list =
  [ blockstop; locksafe; stackcheck; errcheck; userck; absint; refsafe ]
let find (name : string) : Engine.Analysis.t option =
  List.find_opt (fun a -> Engine.Analysis.name a = name) all

exception Unknown_analysis of string

(* Run the selected analyses (all of them by default) over one shared
   context; each result list is already sorted and deduplicated. *)
let run_all ?(only = []) (ctxt : Context.t) : (string * Diag.t list) list =
  let selected =
    match only with
    | [] -> all
    | names ->
        List.map
          (fun n -> match find n with Some a -> a | None -> raise (Unknown_analysis n))
          names
  in
  List.map (fun a -> (Engine.Analysis.name a, Engine.Analysis.run a ctxt)) selected

(* All diagnostics of a run, flattened into one deterministic list. *)
let diags (results : (string * Diag.t list) list) : Diag.t list =
  Diag.sort (List.concat_map snd results)
