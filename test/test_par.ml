(* The parallel drivers: Par pool units (ordering, exception choice,
   serial bypass), the fuzz campaign's determinism contract — the same
   seed must produce byte-identical output whatever --jobs is — and
   the stats merge of per-worker contexts. The whole suite must pass on
   a 1-core host (CI runs it under nproc=1), so nothing here measures
   speedup, only equivalence. *)

(* ---- Par.map / Par.mapi units ---- *)

let test_map_ordering () =
  let xs = List.init 97 (fun i -> i) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d preserves order" jobs)
        (List.map (fun x -> (x * 7) mod 13) xs)
        (Par.map ~jobs (fun x -> (x * 7) mod 13) xs))
    [ 1; 2; 4; 16 ]

let test_map_uneven_costs () =
  (* Items that finish out of claim order still merge in index order. *)
  let xs = List.init 24 (fun i -> i) in
  let slow x =
    if x mod 5 = 0 then Unix.sleepf 0.002;
    x * x
  in
  Alcotest.(check (list int)) "uneven costs, ordered merge" (List.map (fun x -> x * x) xs)
    (Par.map ~jobs:8 slow xs)

let test_map_edge_shapes () =
  Alcotest.(check (list int)) "empty list" [] (Par.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 9 ] (Par.map ~jobs:4 (fun x -> x * 3) [ 3 ]);
  Alcotest.(check (list int))
    "more jobs than items" [ 2; 4 ]
    (Par.map ~jobs:64 (fun x -> 2 * x) [ 1; 2 ])

let test_mapi_indices () =
  Alcotest.(check (list int))
    "mapi passes the item's index" [ 10; 21; 32; 43 ]
    (Par.mapi ~jobs:3 (fun i x -> (10 * x) + i) [ 1; 2; 3; 4 ])

let test_serial_bypass_stays_on_domain () =
  (* jobs=1 must run f on the calling domain (no spawns): observable
     because unsynchronized mutable state stays coherent. *)
  let self = Domain.self () in
  let seen = ref [] in
  let r =
    Par.map ~jobs:1
      (fun x ->
        Alcotest.(check bool) "same domain" true (Domain.self () = self);
        seen := x :: !seen;
        x)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "result" [ 1; 2; 3 ] r;
  Alcotest.(check (list int)) "effects in order" [ 3; 2; 1 ] !seen

exception Boom of int

let test_exception_lowest_index_wins () =
  (* Several items fail; whichever worker finishes first, the exception
     re-raised must be the lowest-indexed one. *)
  List.iter
    (fun jobs ->
      match
        Par.map ~jobs
          (fun x -> if x mod 3 = 2 then raise (Boom x) else x)
          (List.init 30 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom n ->
          Alcotest.(check int) (Printf.sprintf "jobs=%d raises index 2" jobs) 2 n)
    [ 1; 4 ]

let test_exception_drains_pool () =
  (* A failure must not abandon the other items mid-flight: every item
     is still evaluated (all-or-nothing accounting). *)
  let count = Atomic.make 0 in
  (match
     Par.map ~jobs:4
       (fun x ->
         Atomic.incr count;
         if x = 0 then failwith "first";
         x)
       (List.init 16 (fun i -> i))
   with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure m -> Alcotest.(check string) "first failure" "first" m);
  Alcotest.(check int) "all items ran" 16 (Atomic.get count)

(* ---- campaign format v3: the injector stream split ---- *)

let test_format_version () = Alcotest.(check int) "campaign format" 3 Gen.Fuzz.format_version

let test_v2_fault_derivation_locked () =
  (* Snapshot of the v2+ (split-stream) per-case fault labels: a silent
     return to the v1 [cseed + 1] derivation changes these.  The labels
     also depend on the length of [Gen.Fault.all] (the injector draws an
     index into it), so APPENDING a fault kind legitimately reshuffles
     them — recompute the snapshot when the taxonomy grows (last:
     ref-leak/double-put/put-on-error-path, 6 -> 9 kinds).  The v3
     Oob_write shape widening draws *after* both the kind and the host
     picks, so these labels survived the v2 -> v3 bump unchanged. *)
  let label i =
    match (Gen.Fuzz.case_program ~seed:42 i).Gen.Prog.faults with
    | [ (k, fn) ] -> Gen.Fault.to_string k ^ "@" ^ fn
    | [] -> "clean"
    | _ -> "multiple"
  in
  List.iter
    (fun (i, expected) -> Alcotest.(check string) (Printf.sprintf "case %d" i) expected (label i))
    [
      (1, "ref-leak@f0_");
      (2, "oob-write@f1_");
      (3, "atomic-block@f3_");
      (4, "clean");
      (5, "unchecked-err@f0_");
      (6, "user-deref@f4_");
    ]

(* ---- end-to-end determinism: fuzz ---- *)

let test_fuzz_summary_identical_across_jobs () =
  let render jobs =
    Gen.Fuzz.render_summary ~elapsed:false (Gen.Fuzz.run ~jobs ~seed:5 ~count:12 ())
  in
  let serial = render 1 in
  Alcotest.(check string) "jobs=4 summary byte-identical" serial (render 4);
  Alcotest.(check string) "jobs=3 summary byte-identical" serial (render 3)

let test_fuzz_log_identical_across_jobs () =
  (* The progress/violation lines the driver logs must also come back
     in the serial order, whatever the pool interleaving was. *)
  let logged jobs =
    let acc = ref [] in
    ignore (Gen.Fuzz.run ~jobs ~log:(fun s -> acc := s :: !acc) ~seed:5 ~count:12 ());
    List.rev !acc
  in
  Alcotest.(check (list string)) "log lines identical" (logged 1) (logged 4)

(* ---- merge_counters ---- *)

let parse src = Kc.Typecheck.check_sources [ ("par_test.kc", src) ]

let check_fixture =
  "void spin_lock(long *l);\n\
   void spin_unlock(long *l);\n\
   long la;\n\
   long lb;\n\
   int risky(int x) { if (x < 0) { return -5; } return 0; }\n\
   int caller(void) { risky(1); return 0; }\n\
   int one(void) { spin_lock(&la); spin_lock(&lb); spin_unlock(&lb); spin_unlock(&la); return 0; }\n\
   int two(void) { spin_lock(&lb); spin_lock(&la); spin_unlock(&la); spin_unlock(&lb); return 0; }\n\
   long masked(int n) { long a[8]; int k = n & 7; a[2] = 1; a[k] = 5; return a[k]; }\n"

let test_merge_counters () =
  let ctxt_stats () =
    let ctxt = Engine.Context.create (parse check_fixture) in
    ignore (Ivy.Checks.run_all ctxt);
    Engine.Context.stats ctxt
  in
  let a = ctxt_stats () and b = ctxt_stats () in
  let merged = Engine.Context.merge_counters [ a; b ] in
  (* Sorted by artifact, and every counter is the per-worker sum. *)
  let names = List.map (fun (s : Engine.Context.stat) -> s.Engine.Context.artifact) merged in
  Alcotest.(check (list string)) "sorted by artifact" (List.sort compare names) names;
  List.iter
    (fun (s : Engine.Context.stat) ->
      let sum sel =
        List.fold_left
          (fun acc (t : Engine.Context.stat) ->
            if t.Engine.Context.artifact = s.Engine.Context.artifact then acc + sel t else acc)
          0 (a @ b)
      in
      Alcotest.(check int)
        (s.Engine.Context.artifact ^ " builds summed")
        (sum (fun t -> t.Engine.Context.builds))
        s.Engine.Context.builds;
      Alcotest.(check int)
        (s.Engine.Context.artifact ^ " hits summed")
        (sum (fun t -> t.Engine.Context.hits))
        s.Engine.Context.hits)
    merged;
  Alcotest.(check (list string)) "merge of one = identity on counters"
    (List.map (fun (s : Engine.Context.stat) -> s.Engine.Context.artifact) a)
    (List.map
       (fun (s : Engine.Context.stat) -> s.Engine.Context.artifact)
       (Engine.Context.merge_counters [ a ]))

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "ordered merge" `Quick test_map_ordering;
          Alcotest.test_case "uneven costs" `Quick test_map_uneven_costs;
          Alcotest.test_case "edge shapes" `Quick test_map_edge_shapes;
          Alcotest.test_case "mapi indices" `Quick test_mapi_indices;
          Alcotest.test_case "jobs=1 bypass" `Quick test_serial_bypass_stays_on_domain;
          Alcotest.test_case "lowest-index exception" `Quick test_exception_lowest_index_wins;
          Alcotest.test_case "failure drains pool" `Quick test_exception_drains_pool;
        ] );
      ( "format",
        [
          Alcotest.test_case "campaign format v3" `Quick test_format_version;
          Alcotest.test_case "split-stream derivation locked" `Slow test_v2_fault_derivation_locked;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fuzz summary jobs-invariant" `Slow
            test_fuzz_summary_identical_across_jobs;
          Alcotest.test_case "fuzz log jobs-invariant" `Slow test_fuzz_log_identical_across_jobs;
          Alcotest.test_case "merge_counters" `Quick test_merge_counters;
        ] );
    ]
