(* Tests for CFG construction. *)

let parse src = Kc.Typecheck.check_sources [ ("t.kc", src) ]

let fn prog name =
  match Kc.Ir.find_fun prog name with
  | Some f -> f
  | None -> Alcotest.failf "no function %s" name

let cfg_of src name = Dataflow.Cfg.build (fn (parse src) name)

(* ------------------------------------------------------------------ *)
(* CFG shape                                                          *)
(* ------------------------------------------------------------------ *)

let test_straightline () =
  let cfg = cfg_of "int f(void) { int x = 1; x = x + 1; return x; }" "f" in
  let entry = Dataflow.Cfg.node cfg cfg.Dataflow.Cfg.entry in
  Alcotest.(check int) "instrs in entry" 2 (List.length entry.Dataflow.Cfg.instrs);
  (match entry.Dataflow.Cfg.term with
  | Dataflow.Cfg.Treturn (Some _) -> ()
  | _ -> Alcotest.fail "entry should end in return");
  Alcotest.(check (list int)) "entry succ is exit" [ cfg.Dataflow.Cfg.exit_ ]
    entry.Dataflow.Cfg.succs

let test_if_diamond () =
  let cfg = cfg_of "int f(int c) { int r; if (c) { r = 1; } else { r = 2; } return r; }" "f" in
  let entry = Dataflow.Cfg.node cfg cfg.Dataflow.Cfg.entry in
  Alcotest.(check int) "two successors" 2 (List.length entry.Dataflow.Cfg.succs);
  (* Both branches must reach the return; count reachable return nodes. *)
  let reach = Dataflow.Cfg.reachable cfg in
  let returns = ref 0 in
  Array.iter
    (fun (n : Dataflow.Cfg.node) ->
      match n.Dataflow.Cfg.term with
      | Dataflow.Cfg.Treturn _ when reach.(n.Dataflow.Cfg.nid) -> incr returns
      | _ -> ())
    cfg.Dataflow.Cfg.nodes;
  Alcotest.(check bool) "at least one return" true (!returns >= 1)

let test_loop_back_edge () =
  let cfg = cfg_of "int f(int n) { int i; int s = 0; for (i = 0; i < n; i++) { s += i; } return s; }" "f" in
  (* A loop needs a back edge: some node's successor has a smaller or
     equal id appearing earlier in reverse postorder. *)
  let rpo = Dataflow.Cfg.reverse_postorder cfg in
  let pos = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace pos n i) rpo;
  let back_edges = ref 0 in
  Array.iter
    (fun (n : Dataflow.Cfg.node) ->
      List.iter
        (fun s ->
          match (Hashtbl.find_opt pos n.Dataflow.Cfg.nid, Hashtbl.find_opt pos s) with
          | Some a, Some b when b <= a -> incr back_edges
          | _ -> ())
        n.Dataflow.Cfg.succs)
    cfg.Dataflow.Cfg.nodes;
  Alcotest.(check bool) "has back edge" true (!back_edges >= 1)

let test_switch_cfg () =
  let cfg =
    cfg_of
      "int f(int x) { int r = 0; switch (x) { case 1: r = 1; break; case 2: r = 2; break; default: r = 9; } return r; }"
      "f"
  in
  let entry = Dataflow.Cfg.node cfg cfg.Dataflow.Cfg.entry in
  (match entry.Dataflow.Cfg.term with
  | Dataflow.Cfg.Tswitch _ -> ()
  | _ -> Alcotest.fail "entry should be a switch");
  Alcotest.(check int) "three case successors" 3 (List.length entry.Dataflow.Cfg.succs)

let test_unreachable_after_return () =
  let cfg = cfg_of "int f(void) { return 1; }" "f" in
  let reach = Dataflow.Cfg.reachable cfg in
  let unreachable = Array.to_list reach |> List.filter not |> List.length in
  Alcotest.(check bool) "continuation node is unreachable" true (unreachable >= 1)

let () =
  Alcotest.run "dataflow"
    [
      ( "cfg",
        [
          Alcotest.test_case "straightline" `Quick test_straightline;
          Alcotest.test_case "if diamond" `Quick test_if_diamond;
          Alcotest.test_case "loop back edge" `Quick test_loop_back_edge;
          Alcotest.test_case "switch" `Quick test_switch_cfg;
          Alcotest.test_case "unreachable after return" `Quick test_unreachable_after_return;
        ] );
    ]
