(* The Ivy benchmark: one workload per run, one closed-loop client in
   this process.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0), it prints the end-to-end metrics; traced
   (--trace 1), it alternates untraced and traced operations and
   prints the per-layer metrics. Human-readable lines come first; the
   last line of standard output is one JSON object. Run it from the
   repository root: it reads the metric names and units from
   BENCHMARK.json and the check-cold reference from perfbench/expected/. *)

open Perfbench

let setups = 5
let min_ops = 4

module J = Ivy.Jsonx

(* The (name, unit) pairs of one metric list of BENCHMARK.json, which
   defines every metric this program prints. *)
let metrics_of key =
  match J.member key (J.parse (Work.read_file "BENCHMARK.json")) with
  | Some (J.List l) ->
      List.map
        (fun m ->
          match (J.member "name" m, J.member "unit" m) with
          | Some (J.Str n), Some (J.Str u) -> (n, u)
          | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))
        l
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

(* A per-layer metric reads the span or count of the same name;
   [<layer>_alloc_mw] reads the words allocated on span [<layer>_ms];
   the [%] metrics are computed from the whole run. *)
let layer_value (name, unit) =
  match unit with
  | "count" -> Some (float_of_int (Span.count_value name))
  | "Mw" ->
      let layer = String.sub name 0 (String.length name - String.length "_alloc_mw") ^ "_ms" in
      Some (Span.words_value layer /. 1e6)
  | "%" -> None
  | _ -> Some (Span.layer_value name)

let coverage_floor = 95.0

(* One traced operation's per-layer values. *)
type snapshot = { e2e : float; covered : float; values : (string * float) list }

let snapshot per_layer =
  let values =
    List.filter_map (fun m -> Option.map (fun v -> (fst m, v)) (layer_value m)) per_layer
  in
  { e2e = !Span.op_ms; covered = !Span.covered_ms; values }

let finite x = if Float.is_finite x then x else 0.0

let print_result ~correct ~attempted ~failed metrics =
  let cells =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (finite v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    (max 1 attempted) failed (String.concat ", " cells)

let run ~workload ~seed ~seconds ~traced =
  Printf.printf "ivy benchmark: workload %s, seed %d, %d s, trace %d\n%!" workload seed seconds
    (if traced then 1 else 0);
  (* Set-up runs several times when setup_s is reported; the last
     instance is measured. *)
  let setup_s = ref [] and inst = ref None in
  (try
     for _ = 1 to if traced then 1 else setups do
       inst := None;
       Gc.full_major ();
       Span.start_op ~traced:false;
       let t0 = Span.now_ns () in
       inst := Some (Work.setup ~expected:"perfbench/expected/check-cold.json" workload ~traced ~seed);
       setup_s := (Span.ms_between t0 (Span.now_ns ()) /. 1e3) :: !setup_s
     done
   with e -> Printf.eprintf "set-up failed: %s\n%!" (Printexc.to_string e));
  match !inst with
  | None -> exit 1
  | Some inst ->
      let per_layer = metrics_of "per_layer" in
      let untraced = ref [] and traced_ops = ref [] in
      let attempted = ref 0 and failed = ref 0 in
      let t_end = Int64.add (Span.now_ns ()) (Int64.mul (Int64.of_int seconds) 1_000_000_000L) in
      while Span.now_ns () < t_end || !attempted < min_ops do
        let traced_op = traced && !attempted mod 2 = 1 in
        (* Settle the heap outside the timed region. *)
        Gc.full_major ();
        Span.start_op ~traced:traced_op;
        let r = try inst.Work.op () with e -> Error (Printexc.to_string e) in
        incr attempted;
        Span.tracing := false;
        match r with
        | Error msg ->
            incr failed;
            Printf.eprintf "operation %d failed: %s\n%!" !attempted msg
        | Ok () ->
            if traced_op then traced_ops := snapshot per_layer :: !traced_ops
            else untraced := !Span.op_ms :: !untraced
      done;
      let finish = try inst.Work.finish () with e -> Error (Printexc.to_string e) in
      (match finish with Error msg -> Printf.eprintf "end-of-run check failed: %s\n%!" msg | Ok () -> ());
      let op_ms = Span.median !untraced in
      Printf.printf "operations: %d attempted, %d failed (fail_ratio %.4f)\n" !attempted !failed
        (float_of_int !failed /. float_of_int !attempted);
      let describe name unit l =
        Printf.printf "%s: median %.4f %s over %d samples%s\n" name (Span.median l) unit
          (List.length l)
          (match Span.tail l with
          | Some (label, v) -> Printf.sprintf ", %s %.4f %s" label v unit
          | None -> "")
      in
      describe "setup_s" "s" !setup_s;
      describe "op_ms" "ms" !untraced;
      (match workload with
      | "check-cold" -> describe "check_s" "s" (List.map (fun x -> x /. 1e3) !untraced)
      | "fuzz-campaign" ->
          describe "fuzz_cases_per_s" "1/s"
            (List.map (fun x -> float_of_int Work.cases_per_op *. 1e3 /. x) !untraced)
      | "vm-e2" -> describe "e2_ms" "ms" !untraced
      | _ ->
          List.iter
            (fun k ->
              match Hashtbl.find_opt Span.samples k with
              | Some l -> describe k "ms" !l
              | None -> ())
            [ "edit_ms"; "resubmit_ms"; "touch_ms" ]);
      let ok = !failed = 0 && finish = Ok () in
      if not traced then begin
        let rss = Span.peak_rss_mb () in
        Printf.printf "peak_rss_mb: %.1f MiB\n" rss;
        let value = function
          | "op_ms" -> op_ms
          | "setup_s" -> Span.median !setup_s
          | "peak_rss_mb" -> rss
          | name -> failwith ("no end-to-end metric " ^ name)
        in
        print_result ~correct:ok ~attempted:!attempted ~failed:!failed
          (List.map (fun (name, unit) -> (name, unit, value name)) (metrics_of "end_to_end"))
      end
      else begin
        let ops = !traced_ops in
        let med name unit =
          (if unit = "count" then Span.median_low else Span.median)
            (List.map (fun s -> List.assoc name s.values) ops)
        in
        let coverage = Span.median (List.map (fun s -> 100.0 *. s.covered /. s.e2e) ops) in
        let traced_e2e = Span.median (List.map (fun s -> s.e2e) ops) in
        let overhead = 100.0 *. (traced_e2e -. op_ms) /. op_ms in
        let derived =
          inst.Work.derived ~exec_ms:(List.map (fun s -> List.assoc "vm.exec_ms" s.values) ops)
        in
        let metrics =
          List.map
            (fun (name, unit) ->
              let v =
                match (name, List.assoc_opt name derived) with
                | "trace.coverage_pct", _ -> coverage
                | "trace.overhead_pct", _ -> overhead
                | _, Some v -> v
                | _ -> med name unit
              in
              (name, unit, v))
            per_layer
        in
        List.iter (fun (name, unit, v) -> Printf.printf "  %-28s %14.4f %s\n" name v unit) metrics;
        let covered = coverage >= coverage_floor in
        if not covered then
          Printf.eprintf "trace coverage %.1f%% is below %.0f%%: the layer spans miss time\n%!"
            coverage coverage_floor;
        print_result ~correct:(ok && covered) ~attempted:!attempted ~failed:!failed metrics
      end;
      if not ok then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, String.concat "|" Work.names);
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Work.names) then begin
    Printf.eprintf "unknown workload %S (one of %s)\n" !workload (String.concat ", " Work.names);
    exit 2
  end;
  run ~workload:!workload ~seed:!seed ~seconds:(max 1 !seconds) ~traced:(!trace = 1)
