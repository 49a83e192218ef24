(* Timing and per-layer accounting for the benchmark.

   Every clock read goes through bechamel's monotonic clock. A layer
   is timed from outside, around one call into that layer's public
   functions; the calls are made one at a time, so each span is the
   layer's self time by construction. Where a layer's public entry
   point calls other layers internally (Serve.handle_line,
   Oracle.check_source, the deputized getter), the benchmark replays
   the inner calls on the side, times them, and subtracts their sum
   from the outer span (see [replay]).

   An operation's end-to-end time is the sum of its [region]s: the
   parts a user waits for. Replays, input generation and output
   checks run outside regions. *)

let now_ns () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* [Gc.minor_words] also counts the minor heap not yet collected,
   which [Gc.quick_stat] leaves out. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* ---- per-operation accumulators ---------------------------------- *)

let tracing = ref false
let op_ms = ref 0.0

(* Layer time spent inside regions, outside replays: the numerator of
   trace.coverage_pct. *)
let covered_ms = ref 0.0
let in_region = ref false
let in_replay = ref false
let excluded_ms = ref 0.0
let layer_ms : (string, float ref) Hashtbl.t = Hashtbl.create 32
let layer_words : (string, float ref) Hashtbl.t = Hashtbl.create 32
let counts : (string, int ref) Hashtbl.t = Hashtbl.create 32

(* Request-kind latencies of the serve workload, kept in every mode
   for the human-readable report. *)
let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 8

let cell tbl name zero =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
      let r = ref zero in
      Hashtbl.replace tbl name r;
      r

let start_op ~traced =
  tracing := traced;
  op_ms := 0.0;
  covered_ms := 0.0;
  Hashtbl.reset layer_ms;
  Hashtbl.reset layer_words;
  Hashtbl.reset counts

let region f =
  let t0 = now_ns () and x0 = !excluded_ms in
  in_region := true;
  let v = Fun.protect ~finally:(fun () -> in_region := false) f in
  op_ms := !op_ms +. ms_between t0 (now_ns ()) -. (!excluded_ms -. x0);
  v

let add layer ms = if !tracing then (let c = cell layer_ms layer 0.0 in c := !c +. ms)
let count name n = if !tracing then (let c = cell counts name 0 in c := !c + n)
let sample name ms = let c = cell samples name [] in c := ms :: !c

let time layer f =
  if not !tracing then f ()
  else begin
    let w0 = alloc_words () in
    let t0 = now_ns () in
    let v = f () in
    let t1 = now_ns () in
    let w1 = alloc_words () in
    let ms = ms_between t0 t1 in
    add layer ms;
    if !in_region && not !in_replay then covered_ms := !covered_ms +. ms;
    let c = cell layer_words layer 0.0 in
    c := !c +. (w1 -. w0);
    v
  end

let total_layer_ms () = Hashtbl.fold (fun _ r acc -> acc +. !r) layer_ms 0.0

(* Run [f] and return the layer time its spans recorded, for
   subtraction from the span of the call that made the same calls
   internally. A replay's wall time never counts toward the
   operation's end-to-end time. *)
let replay f =
  let before = total_layer_ms () and outer = !in_replay in
  let t0 = now_ns () in
  in_replay := true;
  let v = Fun.protect ~finally:(fun () -> in_replay := outer) f in
  if not outer then excluded_ms := !excluded_ms +. ms_between t0 (now_ns ());
  (v, total_layer_ms () -. before)

let layer_value name = match Hashtbl.find_opt layer_ms name with Some r -> !r | None -> 0.0
let words_value name = match Hashtbl.find_opt layer_words name with Some r -> !r | None -> 0.0
let count_value name = match Hashtbl.find_opt counts name with Some r -> !r | None -> 0

(* ---- statistics --------------------------------------------------- *)

let sorted l = List.sort Float.compare l

let quantile l q =
  match sorted l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile l 0.5

(* The lower middle sample: a count stays a whole number. *)
let median_low l =
  match sorted l with [] -> nan | s -> List.nth s ((List.length s - 1) / 2)

(* The highest of p50/p90/p99/p99.9 that still has at least ten
   samples above it, as (label, value); None below 20 samples. *)
let tail l =
  let n = List.length l in
  List.fold_left
    (fun acc (label, q) ->
      if float_of_int n *. (1.0 -. q) >= 10.0 then Some (label, quantile l q) else acc)
    None
    [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p99.9", 0.999) ]

(* ---- process ------------------------------------------------------ *)

(* High-water resident set size of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

