(* The four workloads. Each [setup] returns an instance whose [op]
   performs one operation: its end-to-end time is the sum of the
   [Span.region]s it enters, and its result is checked against a
   reference outside those regions. [finish] runs the end-of-run
   checks. Load is one closed-loop client in one process, jobs = 1. *)

module Ctx = Engine.Context
module J = Ivy.Jsonx

type instance = {
  op : unit -> (unit, string) result;
  finish : unit -> (unit, string) result;
  derived : exec_ms:float list -> (string * float) list;
      (** per-layer metrics computed once per run, given the traced
          operations' [vm.exec_ms] values *)
}

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let no_derived ~exec_ms:_ = []

(* ------------------------------------------------------------------ *)
(* check-cold: parse, context, every analysis, on a fresh context      *)
(* ------------------------------------------------------------------ *)

(* The reference for one cold check: the [ivy check --json] rendering
   (diagnostics plus the deputy and ccount counter objects) equals the
   pinned file, absint discharges [discharged] of [seen] checks, and
   every seeded BlockStop bug is flagged. *)
let verify_check ~expected ~discharged:(proved, seen) ~true_bugs ctxt results =
  let d = Ctx.deputized ctxt in
  let json = Ivy.Report_fmt.render_diags_json ~deputy:d ~ccount:(Ctx.ccount_discharged ctxt) results in
  let st = d.Ctx.dstats in
  let flagged (fn, callee) =
    List.exists
      (fun (dg : Engine.Diag.t) ->
        contains ~needle:fn dg.Engine.Diag.message && contains ~needle:callee dg.Engine.Diag.message)
      (Option.value ~default:[] (List.assoc_opt "blockstop" results))
  in
  if json <> expected then fail "check report differs from the pinned expected output"
  else if Absint.Discharge.checks_proved st <> proved || Absint.Discharge.checks_seen st <> seen
  then
    fail "absint discharged %d/%d checks, expected %d/%d" (Absint.Discharge.checks_proved st)
      (Absint.Discharge.checks_seen st) proved seen
  else
    match List.find_opt (fun b -> not (flagged b)) true_bugs with
    | Some (fn, callee) -> fail "blockstop missed the seeded bug %s -> %s" fn callee
    | None -> Ok ()

let check_cold ~expected ~traced:_ ~seed:_ =
  let sources = Kernel.Workloads.sources () in
  let cold () =
    Span.region (fun () ->
        let ctxt = Layers.create (Layers.parse sources) in
        (ctxt, Layers.check ctxt))
  in
  let verify (ctxt, results) =
    verify_check ~expected ~discharged:(37, 80) ~true_bugs:Kernel.Corpus.blockstop_true_bugs ctxt
      results
  in
  (* Set-up is one verified warm-up check: lazy initialisation and heap
     growth are paid here, not by the first timed operation. *)
  (match verify (cold ()) with Ok () -> () | Error e -> failwith e);
  { op = (fun () -> verify (cold ())); finish = (fun () -> Ok ()); derived = no_derived }

(* ------------------------------------------------------------------ *)
(* serve-edit: edit / resubmit / touch rounds against one daemon       *)
(* ------------------------------------------------------------------ *)

type kind = Edit | Resubmit | Touch

let kind_name = function Edit -> "edit" | Resubmit -> "resubmit" | Touch -> "touch"

let request ~id sources =
  J.render
    (J.Obj
       [
         ("id", J.Num (float_of_int id));
         ("method", J.Str "check");
         ( "params",
           J.Obj
             [
               ("program", J.Str "bench");
               ( "files",
                 J.List
                   (List.map
                      (fun (p, s) -> J.Obj [ ("path", J.Str p); ("source", J.Str s) ])
                      sources) );
             ] );
       ])

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (J.member k j) (fun v -> path v rest)

(* What each request kind must answer: an edit rebuilds and names the
   edited function; a resubmit and a touch build nothing. *)
let verify_response ~kind ~edited resp =
  match J.parse resp with
  | exception J.Parse_error m -> fail "unparsable response: %s" m
  | j -> (
      match J.member "result" j with
      | None -> fail "%s request failed: %s" (kind_name kind) resp
      | Some r -> (
          let warm = path r [ "warm" ] = Some (J.Bool true) in
          let changed =
            match path r [ "update"; "changed" ] with
            | Some (J.List l) -> List.filter_map J.to_string_opt l
            | _ -> []
          in
          match kind with
          | Edit when warm -> fail "edit of %s answered warm:true" edited
          | Edit when changed <> [ edited ] ->
              fail "edit of %s reported changed [%s]" edited (String.concat "," changed)
          | (Resubmit | Touch) when not warm -> fail "%s answered warm:false" (kind_name kind)
          | _ -> Ok r))

(* Warm equals cold: the daemon's last report equals a fresh context's
   report on the same sources. *)
let verify_warm_cold ~warm_report sources =
  let ctxt = Ctx.create (Kc.Typecheck.check_sources sources) in
  let cold = J.parse (Ivy.Report_fmt.render_diags_json (Ivy.Checks.run_all ctxt)) in
  if J.render warm_report = J.render cold then Ok ()
  else fail "warm daemon report differs from a cold check of the same sources"

(* Seeded one-function body edits. Either shape keeps every line in
   place (statement locations are part of a function's fingerprint, so
   a shifted line would change later functions too): a dead local
   declared right after the body's opening brace, or a new value for a
   [return <literal>;] in a function returning an integer. *)
module Edits = struct
  type fn = { name : string; file : int; line : int; int_ret : bool }

  type t = {
    rng : Random.State.t;
    files : (string * string) array;  (** current sources, without the touch comment *)
    mutable touch : int;
    mutable fps : Engine.Fingerprint.table;
    fns : fn array;
  }

  let marker = " long bench_edit_ = "

  let sources t =
    Array.to_list
      (Array.mapi
         (fun i (p, s) ->
           if i = Array.length t.files - 1 && t.touch > 0 then
             (p, Printf.sprintf "%s\n// touched %d\n" s t.touch)
           else (p, s))
         t.files)

  let create ~seed sources prog =
    let files = Array.of_list sources in
    let file_index path =
      let rec go i = if i = Array.length files then None else if fst files.(i) = path then Some i else go (i + 1) in
      go 0
    in
    let fns =
      List.filter_map
        (fun (fd : Kc.Ir.fundec) ->
          if fd.Kc.Ir.fextern then None
          else
            Option.map
              (fun file ->
                {
                  name = fd.Kc.Ir.fname;
                  file;
                  line = fd.Kc.Ir.floc.Kc.Loc.line;
                  int_ret = (match fd.Kc.Ir.fret with Kc.Ir.Tint _ -> true | _ -> false);
                })
              (file_index fd.Kc.Ir.floc.Kc.Loc.file))
        prog.Kc.Ir.funcs
    in
    {
      rng = Random.State.make [| seed |];
      files;
      touch = 0;
      fps = Engine.Fingerprint.table_of prog;
      fns = Array.of_list fns;
    }

  let line_start s line =
    let rec go pos l = if l = line then Some pos else
        match String.index_from_opt s pos '\n' with Some i -> go (i + 1) (l + 1) | None -> None
    in
    go 0 1

  (* [lo, hi): the body of the function whose definition starts at
     [line], from just after its opening brace to its closing brace. *)
  let body s line =
    Option.bind (line_start s line) (fun pos ->
        Option.bind (String.index_from_opt s pos '{') (fun lb ->
            let rec go i depth =
              if i >= String.length s then None
              else
                match s.[i] with
                | '{' -> go (i + 1) (depth + 1)
                | '}' -> if depth = 1 then Some (lb + 1, i) else go (i + 1) (depth - 1)
                | _ -> go (i + 1) depth
            in
            go lb 0))

  let splice s lo hi text = String.sub s 0 lo ^ text ^ String.sub s hi (String.length s - hi)

  let digits_from s i =
    let j = ref i in
    while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
    !j

  let find_sub s ~from ~until needle =
    let n = String.length needle in
    let rec go i = if i + n > until then None else if String.sub s i n = needle then Some i else go (i + 1) in
    go from

  (* The text of [s] with function [f] edited, or None when [f] has no
     body this generator understands. *)
  let edit_text t f s =
    Option.bind (body s f.line) (fun (lo, hi) ->
        let k = string_of_int (1 + Random.State.int t.rng 999) in
        let ret = if f.int_ret then find_sub s ~from:lo ~until:hi "return " else None in
        let ret_lit =
          Option.bind ret (fun i ->
              let d = i + 7 in
              let e = digits_from s d in
              if e > d && e < hi && s.[e] = ';' then Some (d, e) else None)
        in
        match ret_lit with
        | Some (d, e) when Random.State.bool t.rng ->
            if String.sub s d (e - d) = k then None else Some (splice s d e k)
        | _ ->
            if find_sub s ~from:lo ~until:(lo + String.length marker) marker = Some lo then
              let d = lo + String.length marker in
              let e = digits_from s d in
              if String.sub s d (e - d) = k then None else Some (splice s d e k)
            else Some (splice s lo lo (marker ^ k ^ ";")))

  (* Draw edits until one parses and changes exactly the chosen
     function's IR; an edit that folds to the same IR is rejected.
     Returns the edited function's name. *)
  let next t =
    let rec attempt n =
      if n = 0 then failwith "no IR-changing edit found in 200 draws"
      else
        let f = t.fns.(Random.State.int t.rng (Array.length t.fns)) in
        let path, s = t.files.(f.file) in
        match edit_text t f s with
        | None -> attempt (n - 1)
        | Some s' -> (
            let old = t.files.(f.file) in
            t.files.(f.file) <- (path, s');
            match Kc.Typecheck.check_sources (sources t) with
            | exception _ ->
                t.files.(f.file) <- old;
                attempt (n - 1)
            | prog ->
                let fps = Engine.Fingerprint.table_of prog in
                let d = Engine.Fingerprint.diff ~old:t.fps fps in
                if
                  d.Engine.Fingerprint.d_changed = [ f.name ]
                  && d.Engine.Fingerprint.d_added = []
                  && d.Engine.Fingerprint.d_removed = []
                  && not d.Engine.Fingerprint.d_header_changed
                then begin
                  t.fps <- fps;
                  f.name
                end
                else begin
                  t.files.(f.file) <- old;
                  attempt (n - 1)
                end)
    in
    attempt 200
end

(* Traced, every request is replayed on a shadow context that has seen
   the same sources: the frontend, update and analysis calls the daemon
   made internally are timed there and subtracted from handle_line. *)
let serve_edit ~traced ~seed =
  let sources = Kernel.Workloads.sources () in
  let daemon = Ivy.Serve.create ~capacity:1 ~jobs:1 () in
  let id = ref 0 in
  let send line =
    incr id;
    fst (Ivy.Serve.handle_line daemon line)
  in
  (* Set-up: the daemon's one cold check of the corpus. *)
  let first = send (request ~id:0 sources) in
  if not (contains ~needle:"\"warm\":false" first) then failwith ("cold check failed: " ^ first);
  let edits = Edits.create ~seed sources (Kc.Typecheck.check_sources sources) in
  let shadow =
    if traced then begin
      let c = Ctx.create ~jobs:1 (Kc.Typecheck.check_sources sources) in
      ignore (Ivy.Checks.run_all c);
      Some c
    end
    else None
  in
  let last_report = ref J.Null and pending = ref [] in
  (* After the round, so that its requests run back to back as they do
     untraced, and from a settled heap: the daemon's calls ran with the
     round's garbage and the shadow context's heap is not theirs. *)
  let replay () =
    match shadow with
    | Some c ->
        Gc.full_major ();
        let (), r =
          Span.replay (fun () ->
              List.iter
                (fun (kind, srcs) ->
                  if kind <> Resubmit then begin
                    let prog = Layers.parse srcs in
                    ignore (Span.time "engine.update_ms" (fun () -> Ctx.update c prog))
                  end;
                  ignore (Layers.check c))
                (List.rev !pending))
        in
        pending := [];
        Span.add "ivy.serve_ms" (-.r)
    | None -> pending := []
  in
  let one kind ~edited srcs =
    let line = request ~id:!id srcs in
    let t0 = Span.now_ns () in
    let resp = Span.region (fun () -> Span.time "ivy.serve_ms" (fun () -> send line)) in
    let ms = Span.ms_between t0 (Span.now_ns ()) in
    Span.sample (kind_name kind ^ "_ms") ms;
    Span.add ("ivy." ^ kind_name kind ^ "_ms") ms;
    pending := (kind, srcs) :: !pending;
    let* r = verify_response ~kind ~edited resp in
    (match path r [ "stats"; "totals"; "builds" ] with
    | Some (J.Num n) -> Span.count ("engine.builds_" ^ kind_name kind) (int_of_float n)
    | _ -> ());
    (match path r [ "update"; "dropped" ] with
    | Some (J.Num n) when kind <> Resubmit ->
        Span.count ("engine.dropped_" ^ kind_name kind) (int_of_float n)
    | _ -> ());
    (match J.member "report" r with Some rep -> last_report := rep | None -> ());
    Ok ()
  in
  let op () =
    let edited = Edits.next edits in
    let srcs = Edits.sources edits in
    let* () = one Edit ~edited srcs in
    let* () = one Resubmit ~edited srcs in
    edits.Edits.touch <- edits.Edits.touch + 1;
    let* () = one Touch ~edited (Edits.sources edits) in
    replay ();
    Ok ()
  in
  let finish () = verify_warm_cold ~warm_report:!last_report (Edits.sources edits) in
  { op; finish; derived = no_derived }

(* ------------------------------------------------------------------ *)
(* fuzz-campaign: Gen.Fuzz.run ~jobs:1 over seeded campaigns            *)
(* ------------------------------------------------------------------ *)

let cases_per_op = 8

(* The fuzz reference: no oracle violation, and every planted fault
   detected by its owner. *)
let verify_summary (s : Gen.Fuzz.summary) =
  match s.Gen.Fuzz.s_failures with
  | c :: _ ->
      fail "campaign seed %d case %d: %s" s.Gen.Fuzz.s_seed c.Gen.Fuzz.c_idx
        (String.concat "; " (List.map Gen.Oracle.violation_to_string c.Gen.Fuzz.c_violations))
  | [] -> (
      match
        List.find_opt
          (fun (k, n) -> List.assoc k s.Gen.Fuzz.s_detected <> n)
          s.Gen.Fuzz.s_injected
      with
      | Some (k, n) ->
          fail "campaign seed %d: %s injected %d, detected %d" s.Gen.Fuzz.s_seed
            (Gen.Fault.to_string k) n (List.assoc k s.Gen.Fuzz.s_detected)
      | None -> Ok ())

(* The layer calls [Gen.Oracle.check_source] makes, replayed in the
   same order on the same source. *)
let replay_oracle src =
  let parse () = Layers.parse [ ("gen.kc", src) ] in
  let run t =
    (try ignore (Layers.exec t "main" []) with Vm.Trap.Trap _ -> ());
    Layers.vm_counts t
  in
  let deputize p = ignore (Span.time "deputy.instrument_ms" (fun () -> Deputy.Dreport.deputize p)) in
  let prog = parse () in
  let ctxt = Layers.create prog in
  Span.time "vm.compile_ms" (fun () -> ignore (Ctx.vm_compiled ctxt));
  ignore (Layers.check ctxt);
  deputize (parse ());
  run (Layers.boot prog);
  (let p = parse () in
   deputize p;
   run (Layers.boot p));
  (let p = parse () in
   deputize p;
   ignore (Span.time "absint.discharge_ms" (fun () -> Absint.Discharge.run p));
   run (Layers.boot p));
  List.iter (fun refsafe -> run (Layers.ccount_boot ~refsafe (parse ()))) [ false; true ]

let fuzz_campaign ~traced:_ ~seed =
  let campaign = ref 0 in
  let next_seed () =
    incr campaign;
    Gen.Rng.mix seed !campaign
  in
  let untraced cseed =
    verify_summary
      (Span.region (fun () -> Gen.Fuzz.run ~jobs:1 ~seed:cseed ~count:cases_per_op ()))
  in
  (* Traced, the campaign's cases are generated and judged one at a
     time (what [Gen.Fuzz.run] does for each case), with the oracle's
     layer calls replayed after each verdict. *)
  let traced cseed =
    let injected = ref [] and detected = ref [] and violations = ref [] and srcs = ref [] in
    for i = 0 to cases_per_op - 1 do
      let p, src, v =
        Span.region (fun () ->
            let p = Span.time "gen.generate_ms" (fun () -> Gen.Fuzz.case_program ~seed:cseed i) in
            let src = Span.time "gen.render_ms" (fun () -> Gen.Prog.render p) in
            let v =
              Span.time "gen.oracle_ms" (fun () ->
                  Gen.Oracle.check_source ~name:"gen.kc" src p.Gen.Prog.faults)
            in
            (p, src, v))
      in
      srcs := src :: !srcs;
      injected := p.Gen.Prog.faults @ !injected;
      detected := v.Gen.Oracle.detected @ !detected;
      if v.Gen.Oracle.violations <> [] then
        violations := (i, v.Gen.Oracle.violations) :: !violations
    done;
    (* After the campaign, so that its cases run back to back as they
       do in [Gen.Fuzz.run]. *)
    List.iter
      (fun src ->
        let (), r = Span.replay (fun () -> replay_oracle src) in
        Span.add "gen.oracle_ms" (-.r))
      !srcs;
    let tally l = List.map (fun k -> (k, List.length (List.filter (fun (k', _) -> k' = k) l))) Gen.Fault.all in
    verify_summary
      {
        Gen.Fuzz.s_seed = cseed;
        s_count = cases_per_op;
        s_clean = 0;
        s_injected = tally !injected;
        s_detected = tally !detected;
        s_failures =
          List.map
            (fun (i, vs) ->
              { Gen.Fuzz.c_idx = i; c_seed = cseed; c_labels = []; c_violations = vs; c_repro = None })
            !violations;
        s_elapsed = 0.0;
      }
  in
  (* Set-up: one fixed warm-up campaign, the same for every seed. *)
  (match untraced (Gen.Rng.mix 0 0) with Ok () -> () | Error e -> failwith e);
  {
    op = (fun () -> if !Span.tracing then traced (next_seed ()) else untraced (next_seed ()));
    finish = (fun () -> Ok ());
    derived = no_derived;
  }

(* ------------------------------------------------------------------ *)
(* vm-e2: the E2 schedule on the compiled engine                       *)
(* ------------------------------------------------------------------ *)

let e2_schedule t =
  ignore (Layers.exec t Kernel.Corpus.boot_entry []);
  List.iter
    (fun (row : Kernel.Workloads.row) -> ignore (Layers.exec t row.Kernel.Workloads.entry [ 3L ]))
    Kernel.Workloads.table1

(* The VM reference: the compiled engine's cycle count equals the
   tree-walk interpreter's on the same program. *)
let verify_cycles ~reference t =
  let c = Layers.cycles t in
  if c = reference then Ok () else fail "E2 ran %d cycles, the tree-walk reference %d" c reference

let vm_e2 ~traced:_ ~seed:_ =
  let prog = Kernel.Workloads.load ~fresh:true () in
  ignore (Deputy.Dreport.deputize ~optimize:true prog);
  let reference =
    let t = Vm.Builtins.boot ~engine:Vm.Interp.Tree prog in
    e2_schedule t;
    Layers.cycles t
  in
  (* The first compiled run compiles the program (lazily, per
     function); its excess over a warm run is the compile time. *)
  Vm.Compile.reset_opt_stats ();
  let t = Vm.Builtins.boot ~engine:Vm.Interp.Compiled prog in
  let t0 = Span.now_ns () in
  e2_schedule t;
  let cold_ms = Span.ms_between t0 (Span.now_ns ()) in
  (match verify_cycles ~reference t with Ok () -> () | Error e -> failwith e);
  let opt_sites = List.fold_left (fun acc (_, n) -> acc + n) 0 (Vm.Compile.opt_stats ()) in
  let op () =
    let t = Layers.boot ~engine:Vm.Interp.Compiled prog in
    Span.region (fun () -> e2_schedule t);
    Layers.vm_counts t;
    Span.count "vm.opt_sites" opt_sites;
    verify_cycles ~reference t
  in
  let derived ~exec_ms = [ ("vm.compile_ms", cold_ms -. Span.median exec_ms) ] in
  { op; finish = (fun () -> Ok ()); derived }

let names = [ "check-cold"; "serve-edit"; "fuzz-campaign"; "vm-e2" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* [expected] is the path of the pinned check-cold reference. *)
let setup ~expected name ~traced ~seed =
  match name with
  | "check-cold" -> check_cold ~expected:(read_file expected) ~traced ~seed
  | "serve-edit" -> serve_edit ~traced ~seed
  | "fuzz-campaign" -> fuzz_campaign ~traced ~seed
  | "vm-e2" -> vm_e2 ~traced ~seed
  | w -> invalid_arg ("unknown workload " ^ w)
