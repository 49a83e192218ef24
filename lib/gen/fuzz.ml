type case = {
  c_idx : int;
  c_seed : int;
  c_labels : (Fault.kind * string) list;
  c_violations : Oracle.violation list;
  c_repro : string option;
}

type summary = {
  s_seed : int;
  s_count : int;
  s_clean : int;
  s_injected : (Fault.kind * int) list;
  s_detected : (Fault.kind * int) list;
  s_failures : case list;
  s_elapsed : float;
}

(* Campaign format v2: the fault injector draws from a stream split off
   the per-case seed ([Rng.mix cseed 1]) instead of the v1 [cseed + 1].
   v1 aliased streams: [mix seed i] walks the splitmix counter, so
   [cseed_i + 1] can land on (or near) another case's generator state,
   correlating supposedly independent cases. The version is printed in
   every summary so old seeds are never silently reinterpreted.

   v3 widens the Oob_write shape draw from 4 to 5 ([F_oob_symbolic]:
   dependent-count heap buffer whose in-loop checks need a relational
   bound), shifting every later draw on the same stream. *)
let format_version = 3

let case_program ~seed i : Prog.t =
  let cseed = Rng.mix seed i in
  let p = Generate.clean cseed in
  if i mod 4 = 0 then p
  else
    let rng = Rng.create (Rng.mix cseed 1) in
    Inject.plant rng (Rng.pick rng Fault.all) p

(* Workers may race to create the repro directory; EEXIST is success. *)
let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let write_repro ~out ~idx (p : Prog.t) (v : Oracle.verdict) : string =
  ensure_dir out;
  let path = Filename.concat out (Printf.sprintf "repro_%d_seed%d.kc" idx p.Prog.seed) in
  let oc = open_out path in
  output_string oc "// ivy fuzz repro\n";
  List.iter
    (fun (k, fn) -> Printf.fprintf oc "// label: %s in %s\n" (Fault.to_string k) fn)
    p.Prog.faults;
  List.iter
    (fun viol -> Printf.fprintf oc "// violation: %s\n" (Oracle.violation_to_string viol))
    v.Oracle.violations;
  output_string oc (Prog.render p);
  close_out oc;
  path

let bump kind counts =
  List.map (fun (k, n) -> if k = kind then (k, n + 1) else (k, n)) counts

(* Everything the index-order merge needs to reproduce the serial
   driver byte for byte: the pre-shrink labels/detections feed the
   census, [r_log] is the exact violation line the serial loop printed
   as it went, and the failure record (post-shrink) rides in
   [r_failure]. Repro files are written by the worker — names depend
   only on (index, seed), so concurrent writers never collide. *)
type case_result = {
  r_labels : (Fault.kind * string) list;
  r_detected : (Fault.kind * string) list;
  r_log : string option;
  r_failure : case option;
}

let run_case ~shrink ~out ~seed i : case_result =
  let p = case_program ~seed i in
  let v = Oracle.check p in
  if v.Oracle.violations = [] then
    { r_labels = p.Prog.faults; r_detected = v.Oracle.detected; r_log = None; r_failure = None }
  else begin
    let log =
      Printf.sprintf "case %d (seed %d): %s" i p.Prog.seed
        (String.concat "; " (List.map Oracle.violation_to_string v.Oracle.violations))
    in
    let labels = p.Prog.faults and detected = v.Oracle.detected in
    let p, v =
      if shrink then
        let small =
          Shrink.minimize ~check:(fun q -> (Oracle.check q).Oracle.violations <> []) p
        in
        (small, Oracle.check small)
      else (p, v)
    in
    let repro = Option.map (fun out -> write_repro ~out ~idx:i p v) out in
    {
      r_labels = labels;
      r_detected = detected;
      r_log = Some log;
      r_failure =
        Some
          {
            c_idx = i;
            c_seed = p.Prog.seed;
            c_labels = p.Prog.faults;
            c_violations = v.Oracle.violations;
            c_repro = repro;
          };
    }
  end

let run ?(shrink = false) ?out ?(log = ignore) ?(jobs = 1) ~seed ~count () : summary =
  let t0 = Monotonic_clock.now () in
  (* Cases shard perfectly: case i is a pure function of (seed, i), so
     the pool evaluates them in any order and the merge below folds the
     results back in index order — same census, same failure list, same
     log lines as the serial loop. *)
  let results = Par.mapi ~jobs (fun _ i -> run_case ~shrink ~out ~seed i) (List.init count Fun.id) in
  let zero = List.map (fun k -> (k, 0)) Fault.all in
  let injected = ref zero and detected = ref zero in
  let clean = ref 0 and failures = ref [] in
  List.iteri
    (fun i r ->
      if r.r_labels = [] then incr clean;
      List.iter (fun (k, _) -> injected := bump k !injected) r.r_labels;
      List.iter (fun (k, _) -> detected := bump k !detected) r.r_detected;
      (match r.r_log with Some line -> log line | None -> ());
      (match r.r_failure with Some c -> failures := c :: !failures | None -> ());
      if (i + 1) mod 100 = 0 then
        log (Printf.sprintf "%d/%d cases, %d failures" (i + 1) count (List.length !failures)))
    results;
  {
    s_seed = seed;
    s_count = count;
    s_clean = !clean;
    s_injected = !injected;
    s_detected = !detected;
    s_failures = List.rev !failures;
    s_elapsed = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9;
  }

let render_summary ?(elapsed = true) (s : summary) : string =
  let buf = Buffer.create 1024 in
  let bpf fmt = Printf.bprintf buf fmt in
  bpf "fuzz campaign (format v%d): seed %d, %d cases (%d clean, %d faulty)" format_version
    s.s_seed s.s_count s.s_clean (s.s_count - s.s_clean);
  if elapsed then bpf " in %.2fs" s.s_elapsed;
  bpf "\n";
  bpf "%-16s %10s %10s\n" "fault kind" "injected" "detected";
  List.iter
    (fun k ->
      bpf "%-16s %10d %10d\n" (Fault.to_string k)
        (List.assoc k s.s_injected) (List.assoc k s.s_detected))
    Fault.all;
  (match s.s_failures with
  | [] -> bpf "oracle violations: none\n"
  | fs ->
      bpf "oracle violations: %d case(s)\n" (List.length fs);
      List.iter
        (fun c ->
          bpf "  case %d (seed %d)%s:\n" c.c_idx c.c_seed
            (match c.c_repro with Some p -> " repro " ^ p | None -> "");
          List.iter
            (fun v -> bpf "    %s\n" (Oracle.violation_to_string v))
            c.c_violations)
        fs);
  Buffer.contents buf
