(* Four fences on the source text of lib/ (and bin/ for the last two).

   The first is on process-wide mutable state.

   Scans every lib/**/*.ml for a structure-level value binding (at the
   top of a file or of a [struct ... end]) whose right-hand side
   allocates mutable state that then lives as long as the process: a
   [ref], a hash table (including a [Hashtbl.Make]/[Ephemeron]/[Weak]
   instance of the same file), an [Atomic], a [Mutex] or [Condition], a
   [Queue]/[Stack], a [Domain.DLS] key, or a [Vmcounters] table.
   Bindings with parameters or a [fun] right-hand side allocate per
   call and are not matched; neither are immutable witnesses such as
   [Engine.Graph.slot ()]. Comments and string literals are blanked
   before the scan.

   Every match must be in [allowed] below, and every entry of
   [allowed] must still match, so the allowlist is exactly the state
   DESIGN.md's "Process-wide state" section justifies.

   The second is on copied IR and layout rules: each name in [owners]
   may be defined at structure level only in the files listed for it,
   and must be defined in each of them.

   The third is on discharge call sites: each discharged program view
   has one builder, the engine context, so in lib/ and bin/ only
   [discharge_builder] may run [Absint.Discharge.run] or
   [Refsafe.Discharge.run] (or name either module whole, as an alias
   or an [open] would).

   The fourth is on refsafe solving: the context is also the single
   owner of the per-function refsafe nodes, so outside lib/refsafe/
   (whose summary-less discharge path solves its own) only
   [discharge_builder] may call [Refsafe.Summary.compute] or
   [Refsafe.Ownership.check] (or name [Refsafe], [Refsafe.Summary] or
   [Refsafe.Ownership] whole). *)

let allowed =
  [
    ( "vm/compile.ml",
      "opt_counters",
      "compile-site counters: the benchmark reads them through the unit-argument \
       opt_stats/reset_opt_stats" );
    ( "vm/compile.ml",
      "cache_tbl",
      "compiled code shared by the fresh machine each vm-e2 operation boots (vm.compile_ms ~15 \
       ms against vm.exec_ms ~51 ms)" );
    ("vm/compile.ml", "cache_lock", "guards cache_tbl");
    ( "vm/mem.ml",
      "boots_in_cycle",
      "reclaim heuristic: a mapped Bigarray has no explicit unmap" );
    ("vm/mem.ml", "cycle_seen", "reclaim heuristic, with boots_in_cycle");
    ( "kernel/workloads.ml",
      "load_memo",
      "parsed corpus memo; the benchmark opts out with ~fresh:true" );
    ("kernel/workloads.ml", "load_lock", "guards load_memo");
  ]

(* Each rule's one owner. [lval_type] has two: the IR's, and the VM's,
   which traps on ill-typed IR. *)
let owners =
  [
    ("lval_type", [ "kc/ir.ml"; "vm/vmstate.ml" ]);
    ("strip_ptr_casts", [ "kc/ir.ml" ]);
    ("allocators", [ "kc/ir.ml" ]);
    ("remove_instrs", [ "kc/ir.ml" ]);
    ("sorted_bindings", [ "kc/pretty.ml" ]);
    ("json_escape", [ "engine/diag.ml" ]);
  ]

(* A JSON string escaper writes control characters as [\u%04x]
   whatever it is called: only its owner may hold that format. *)
let json_control_escape = {|"\\u%04x"|}
let json_escaper_owner = "engine/diag.ml"

let discharge_builder = "lib/engine/context.ml"

(* ---- source text ---------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Blank (nested) comments, string literals, quoted strings and
   character literals, keeping newlines so lines and indentation
   survive. *)
let blank_comments_and_strings (src : string) : string =
  let b = Bytes.of_string src in
  let n = Bytes.length b in
  let blank i = if Bytes.get b i <> '\n' then Bytes.set b i ' ' in
  let rec skip_string i =
    (* i is just past the opening quote *)
    if i >= n then n
    else
      match Bytes.get b i with
      | '"' ->
          blank i;
          i + 1
      | '\\' when i + 1 < n ->
          blank i;
          blank (i + 1);
          skip_string (i + 2)
      | _ ->
          blank i;
          skip_string (i + 1)
  in
  let rec skip_comment depth i =
    if i >= n then n
    else if i + 1 < n && Bytes.get b i = '(' && Bytes.get b (i + 1) = '*' then (
      blank i;
      blank (i + 1);
      skip_comment (depth + 1) (i + 2))
    else if i + 1 < n && Bytes.get b i = '*' && Bytes.get b (i + 1) = ')' then (
      blank i;
      blank (i + 1);
      if depth = 1 then i + 2 else skip_comment (depth - 1) (i + 2))
    else if Bytes.get b i = '"' then (
      blank i;
      skip_comment depth (skip_string (i + 1)))
    else (
      blank i;
      skip_comment depth (i + 1))
  in
  (* {id| ... |id} *)
  let quoted_end i =
    let j = ref (i + 1) in
    while !j < n && (match Bytes.get b !j with 'a' .. 'z' | '_' -> true | _ -> false) do
      incr j
    done;
    if !j < n && Bytes.get b !j = '|' then
      let id = Bytes.sub_string b (i + 1) (!j - i - 1) in
      let close = "|" ^ id ^ "}" in
      let rec find k =
        if k + String.length close > n then n
        else if Bytes.sub_string b k (String.length close) = close then k + String.length close
        else find (k + 1)
      in
      Some (find (!j + 1))
    else None
  in
  let rec go i =
    if i < n then
      match Bytes.get b i with
      | '(' when i + 1 < n && Bytes.get b (i + 1) = '*' -> go (skip_comment 0 i)
      | '"' ->
          blank i;
          go (skip_string (i + 1))
      | '{' -> (
          match quoted_end i with
          | Some e ->
              for k = i to e - 1 do
                blank k
              done;
              go e
          | None -> go (i + 1))
      | '\'' when i + 2 < n && Bytes.get b (i + 1) = '\\' ->
          (* '\n', '\'', '\\', '\123': the closing quote comes after the
             escaped character *)
          let j = ref (i + 3) in
          while !j < n && Bytes.get b !j <> '\'' do
            incr j
          done;
          for k = i to min !j (n - 1) do
            blank k
          done;
          go (!j + 1)
      | '\'' when i + 2 < n && Bytes.get b (i + 2) = '\'' ->
          blank i;
          blank (i + 1);
          blank (i + 2);
          go (i + 3)
      | _ -> go (i + 1)
  in
  go 0;
  Bytes.to_string b

(* ---- structure-level value bindings ---------------------------------- *)

let indent l =
  let rec go i = if i < String.length l && l.[i] = ' ' then go (i + 1) else i in
  go 0

let is_blank l = String.trim l = ""
let blank_nl c = if c = '\n' then ' ' else c

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let ends_with ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

let is_ident_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* [name] as a whole token of [s], not a field or module path segment
   ([.name]) and not a prefix or suffix of a longer identifier. *)
let has_token s name =
  let n = String.length s and m = String.length name in
  let rec from i =
    i + m <= n
    && ((String.sub s i m = name
        && (i = 0 || not (is_ident_char s.[i - 1] || s.[i - 1] = '.'))
        && (i + m = n || not (is_ident_char s.[i + m])))
       || from (i + 1))
  in
  from 0

(* Modules of this file that instantiate a mutable table functor. *)
let table_modules (lines : string list) : string list =
  List.filter_map
    (fun l ->
      let t = String.trim l in
      if starts_with ~prefix:"module " t then
        match String.split_on_char ' ' t with
        | _ :: name :: "=" :: rhs :: _
          when List.exists
                 (fun p -> starts_with ~prefix:p rhs)
                 [ "Hashtbl.Make"; "Ephemeron."; "Weak.Make" ] ->
            Some name
        | _ -> None
      else None)
    lines

let constructors tables =
  [ "Hashtbl.create"; "Atomic.make"; "Mutex.create"; "Condition.create"; "Queue.create";
    "Stack.create"; "Domain.DLS.new_key"; "Vmcounters.create"; "Weak.create" ]
  @ List.map (fun m -> m ^ ".create") tables

(* [let [rec] name [: ty] = rhs]: the name and the right-hand side of
   a value binding, or [None] for a function, [let ()] or [let _]. *)
let value_binding (item : string) : (string * string) option =
  let t = String.trim item in
  let drop k s = String.trim (String.sub s k (String.length s - k)) in
  let t =
    match String.index_opt t ']' with
    | Some i when starts_with ~prefix:"let[@" t -> "let " ^ drop (i + 1) t
    | _ -> t
  in
  let t = drop 3 t in
  let t = if starts_with ~prefix:"rec " t then drop 4 t else t in
  let len = String.length t in
  let rec name_end i = if i < len && is_ident_char t.[i] then name_end (i + 1) else i in
  let e = name_end 0 in
  if e = 0 || t.[0] = '_' || not (match t.[0] with 'a' .. 'z' -> true | _ -> false) then None
  else
    let name = String.sub t 0 e in
    let rest = String.trim (String.sub t e (len - e)) in
    if rest = "" || not (rest.[0] = '=' || rest.[0] = ':') then None (* has parameters *)
    else
      (* the first [=] that is not part of an operator *)
      let rl = String.length rest in
      let rec eq i =
        if i >= rl then None
        else if
          rest.[i] = '='
          && (i = 0 || not (String.contains "<>=:!" rest.[i - 1]))
          && (i + 1 >= rl || not (String.contains "=>" rest.[i + 1]))
        then Some i
        else eq (i + 1)
      in
      match eq 0 with
      | None -> None
      | Some i ->
          let rhs = String.trim (String.sub rest (i + 1) (rl - i - 1)) in
          let first = List.hd (String.split_on_char ' ' (String.trim (String.map blank_nl rhs))) in
          if List.mem first [ "fun"; "function" ] then None else Some (name, rhs)

(* Structure items of a file: a [let] at the indentation of the
   enclosing structure (0, or two past a line ending in [struct]),
   with every deeper line that follows it. *)
let items (lines : string list) : string list =
  let arr = Array.of_list lines in
  let n = Array.length arr in
  let out = ref [] in
  let levels = ref [ 0 ] in
  Array.iteri
    (fun i l ->
      if not (is_blank l) then begin
        let k = indent l in
        let t = String.trim l in
        (match !levels with
        | top :: (_ :: _ as rest) when k < top && starts_with ~prefix:"end" t -> levels := rest
        | _ -> ());
        if k = List.hd !levels && (starts_with ~prefix:"let " t || starts_with ~prefix:"let[@" t)
        then begin
          let buf = Buffer.create 80 in
          Buffer.add_string buf l;
          let j = ref (i + 1) in
          while !j < n && (is_blank arr.(!j) || indent arr.(!j) > k) do
            Buffer.add_char buf '\n';
            Buffer.add_string buf arr.(!j);
            incr j
          done;
          out := Buffer.contents buf :: !out
        end;
        if ends_with ~suffix:"struct" t then levels := (k + 2) :: !levels
      end)
    arr;
  List.rev !out

(* The names of the matching bindings of one source file. *)
let matches (src : string) : string list =
  let lines = String.split_on_char '\n' (blank_comments_and_strings src) in
  let ctors = constructors (table_modules lines) in
  List.filter_map
    (fun item ->
      match value_binding item with
      | Some (name, rhs) when has_token rhs "ref" || List.exists (has_token rhs) ctors -> Some name
      | _ -> None)
    (items lines)

(* The names a file binds with [let] (and the [and]s of a [let rec])
   at the top level or of a [struct ... end], values and functions
   alike. *)
let defined_names (src : string) : string list =
  let lines = String.split_on_char '\n' (blank_comments_and_strings src) in
  let levels = ref [ 0 ] and in_let = ref false in
  let keyword w = List.mem w [ ""; "let"; "and"; "rec" ] || starts_with ~prefix:"let[" w in
  List.concat_map
    (fun l ->
      let k = indent l and t = String.trim l in
      (match !levels with
      | top :: (_ :: _ as rest) when k < top && starts_with ~prefix:"end" t -> levels := rest
      | _ -> ());
      let at_top = t <> "" && k = List.hd !levels in
      if at_top then
        in_let := List.exists (fun p -> starts_with ~prefix:p t) [ "let "; "let[" ]
                  || (!in_let && starts_with ~prefix:"and " t);
      if ends_with ~suffix:"struct" t then levels := (k + 2) :: !levels;
      if not (at_top && !in_let) then []
      else
        match List.filter (fun w -> not (keyword w)) (String.split_on_char ' ' t) with
        | w :: _ when w.[0] >= 'a' && w.[0] <= 'z' ->
            let rec stop i =
              if i < String.length w && is_ident_char w.[i] then stop (i + 1) else i
            in
            [ String.sub w 0 (stop 0) ]
        | _ -> [])
    lines

let rec ml_files root rel : string list =
  let dir = if rel = "" then root else Filename.concat root rel in
  Array.to_list (Sys.readdir dir)
  |> List.sort compare
  |> List.concat_map (fun f ->
         let r = if rel = "" then f else Filename.concat rel f in
         if Sys.is_directory (Filename.concat root r) then ml_files root r
         else if Filename.check_suffix f ".ml" then [ r ]
         else [])

(* dune runs the test from _build/default/test; [dune exec] from the
   repository root. *)
let repo_root = if Sys.file_exists "../lib" then ".." else "."
let lib_root = Filename.concat repo_root "lib"

(* (file relative to lib/, binding name) of every match. *)
let found () =
  List.concat_map
    (fun rel ->
      List.map (fun name -> (rel, name)) (matches (read_file (Filename.concat lib_root rel))))
    (ml_files lib_root "")

let pp (f, n) = f ^ ":" ^ n

let test_allowlist_exact () =
  let found = found () in
  let allowed = List.map (fun (f, n, _) -> (f, n)) allowed in
  let unexpected = List.filter (fun x -> not (List.mem x allowed)) found in
  let stale = List.filter (fun x -> not (List.mem x found)) allowed in
  if unexpected <> [] then
    Alcotest.failf
      "process-wide mutable state outside the allowlist: %s (thread it through a value, or \
       justify it in DESIGN.md \"Process-wide state\" and add it here)"
      (String.concat ", " (List.map pp unexpected));
  if stale <> [] then
    Alcotest.failf "allowlisted but no longer present (drop them here and in DESIGN.md): %s"
      (String.concat ", " (List.map pp stale))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec from i = i + m <= n && (String.sub s i m = sub || from (i + 1)) in
  from 0

let test_one_owner () =
  let files =
    List.map (fun rel -> (rel, read_file (Filename.concat lib_root rel))) (ml_files lib_root "")
  in
  let where p = List.filter_map (fun (rel, src) -> if p src then Some rel else None) files in
  let list l = "[" ^ String.concat "; " l ^ "]" in
  let copies what at owners =
    if at = owners then []
    else [ Printf.sprintf "%s in %s, owned by %s" what (list at) (list owners) ]
  in
  let wrong =
    List.concat_map
      (fun (name, owners) ->
        copies name (where (fun src -> List.mem name (defined_names src))) owners)
      owners
    @ copies "JSON string escapers"
        (where (fun src -> contains src json_control_escape))
        [ json_escaper_owner ]
  in
  if wrong <> [] then
    Alcotest.failf "a rule with one owner has copies (call the owner's): %s"
      (String.concat ", " wrong)

(* Every [i] where [sub] starts in [s]. *)
let occurrences s sub =
  let n = String.length s and m = String.length sub in
  List.filter (fun i -> String.sub s i m = sub) (List.init (max 0 (n - m + 1)) Fun.id)

(* Does [src] (comments and strings blanked) call one of [calls] (a
   whole token at its end, whatever path precedes it) or name one of
   [modules] other than as a path prefix? *)
let uses ~calls ~modules (src : string) : bool =
  let s = blank_comments_and_strings src in
  let n = String.length s in
  let ends_token j = j >= n || not (is_ident_char s.[j]) in
  List.exists
    (fun call ->
      List.exists
        (fun i -> (i = 0 || not (is_ident_char s.[i - 1])) && ends_token (i + String.length call))
        (occurrences s call))
    calls
  || List.exists
       (fun m ->
         List.exists
           (fun i ->
             let j = i + String.length m in
             ends_token j && (j >= n || s.[j] <> '.'))
           (occurrences s m))
       modules

let runs_discharge =
  uses ~calls:[ "Discharge.run" ] ~modules:[ "Absint.Discharge"; "Refsafe.Discharge" ]

let solves_refsafe =
  uses
    ~calls:[ "Refsafe.Summary.compute"; "Ownership.check" ]
    ~modules:[ "Refsafe"; "Refsafe.Summary"; "Refsafe.Ownership" ]

(* The lib/ and bin/ files whose source satisfies [p]. *)
let files_where p =
  List.concat_map
    (fun dir ->
      List.filter_map
        (fun rel ->
          let path = Filename.concat dir rel in
          if p (read_file (Filename.concat repo_root path)) then Some path else None)
        (ml_files (Filename.concat repo_root dir) ""))
    [ "lib"; "bin" ]

(* Only [discharge_builder] among [callers], less [exempt]; and it
   among them. *)
let only_the_builder ~what ~hint ~exempt callers =
  let others = List.filter (fun f -> f <> discharge_builder && not (exempt f)) callers in
  if others <> [] then
    Alcotest.failf "%s outside %s: %s (%s)" what discharge_builder (String.concat ", " others) hint;
  if not (List.mem discharge_builder callers) then
    Alcotest.failf "%s no longer holds %s: update the fence" discharge_builder what

let test_one_discharge_builder () =
  only_the_builder ~what:"a discharge runs"
    ~hint:"boot the view Engine.Context serves, e.g. through Ivy.Pipeline.of_context"
    ~exempt:(fun f -> List.mem f [ "lib/absint/discharge.ml"; "lib/refsafe/discharge.ml" ])
    (files_where runs_discharge)

let test_one_refsafe_solver () =
  only_the_builder ~what:"refsafe is solved"
    ~hint:"read Engine.Context.refsafe_summaries or refsafe_findings"
    ~exempt:(fun f -> String.starts_with ~prefix:"lib/refsafe/" f)
    (files_where solves_refsafe)

(* The scanner itself: what it must and must not match. *)
let test_scanner () =
  Alcotest.(check (list string)) "matches"
    [ "a"; "b"; "c"; "d"; "z"; "e"; "g"; "inner" ]
    (matches
       "let a : int option ref = ref None\n\
        let b = Hashtbl.create 16\n\
        let c =\n\
       \  let t = Atomic.make 0 in\n\
       \  t\n\
        module T = Ephemeron.K1.Make (struct\n\
       \  type t = int\n\
       \  let equal = ( = )\n\
       \  let hash = Hashtbl.hash\n\
        end)\n\
        let d : int T.t = T.create 4\n\
        let q = '\\''\n\
        let z = ref 0\n\
        let e = Mutex.create ()\n\
        let f x = ref x\n\
        let g = Domain.DLS.new_key (fun () -> 0)\n\
        module M = struct\n\
       \  let inner = ref 0\n\
       \  let per_call () = ref 0\n\
        end\n");
  Alcotest.(check (list string)) "does not match" []
    (matches
       "let f x = ref x\n\
        let g = fun () -> Hashtbl.create 1\n\
        let h () = let r = ref 0 in incr r; !r\n\
        let s = Graph.slot ()\n\
        (* let c = ref 0 *)\n\
        let msg = \"let d = ref 0\"\n\
        let q = '\"'\n\
        let k = { refs = 0 }\n\
        let[@inline] w env = ref env\n\
        let () = ignore (ref 0)\n")

let test_discharge_scanner () =
  List.iter
    (fun src -> Alcotest.(check bool) src true (runs_discharge src))
    [ "let s = Absint.Discharge.run p";
      "ignore (R.Discharge.run ~summaries prog)";
      "let module D = Absint.Discharge in D.rate";
      "open Refsafe.Discharge" ];
  List.iter
    (fun src -> Alcotest.(check bool) src false (runs_discharge src))
    [ "let r = st.Absint.Discharge.fstats";
      "(* Absint.Discharge.run p *)";
      "let msg = \"Refsafe.Discharge.run\"";
      "Refsafe.Discharge.render_stats st";
      "Discharge.runs" ]

let test_refsafe_scanner () =
  List.iter
    (fun src -> Alcotest.(check bool) src true (solves_refsafe src))
    [ "let s = Refsafe.Summary.compute ~memo prog";
      "R.Ownership.check ~cfg_of callees fd";
      "let module S = Refsafe.Summary in S.compute p";
      "module R = Refsafe";
      "open Refsafe.Ownership" ];
  List.iter
    (fun src -> Alcotest.(check bool) src false (solves_refsafe src))
    [ "let s = Absint.Summary.compute ~memo prog";
      "(s : Refsafe.Summary.fsum)";
      "Refsafe.Ownership.Double_put";
      "(* Refsafe.Summary.compute p *)";
      "Refsafe.Ownership.check_program";
      "Refsafe.Summary.computed";
      "MyRefsafe.x" ]

let test_defined_names () =
  Alcotest.(check (list string)) "names"
    [ "a"; "f"; "g"; "h"; "inner"; "letters" ]
    (defined_names
       "let a = 1\n\
        type t = A\n\
        and u = B\n\
        let rec f x = g x\n\
        and g x = x\n\
        let[@inline] h x =\n\
       \  let local = x in\n\
       \  local\n\
        (* let commented = 0 *)\n\
        module M = struct\n\
       \  let inner = 0\n\
        end\n\
        let () = ()\n\
        let _ = 0\n\
        let letters = \"let quoted = 0\"\n")

let () =
  Alcotest.run "globals"
    [
      ( "lib",
        [
          Alcotest.test_case "scanner" `Quick test_scanner;
          Alcotest.test_case "process-wide state is exactly the allowlist" `Quick
            test_allowlist_exact;
          Alcotest.test_case "defined names" `Quick test_defined_names;
          Alcotest.test_case "each IR and layout rule has one owner" `Quick test_one_owner;
          Alcotest.test_case "discharge scanner" `Quick test_discharge_scanner;
          Alcotest.test_case "only the engine context runs a discharge" `Quick
            test_one_discharge_builder;
          Alcotest.test_case "refsafe scanner" `Quick test_refsafe_scanner;
          Alcotest.test_case "only the engine context solves refsafe" `Quick
            test_one_refsafe_solver;
        ] );
    ]
