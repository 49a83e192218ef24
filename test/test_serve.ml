(* Tests for the serve daemon's JSON framing and request handling,
   exercised in-process through [Serve.handle_line] — no socket needed
   to pin down the protocol — plus, against a forked [Serve.run], the
   socket loop's survival of clients that hang up early, never read or
   send an over-cap line, and the --watch poll. *)

module J = Ivy.Jsonx

(* ------------------------------------------------------------------ *)
(* Jsonx                                                              *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.Str "a\"b\\c\nd\te");
        ("n", J.Num 42.0);
        ("f", J.Num 1.5);
        ("neg", J.Num (-7.0));
        ("t", J.Bool true);
        ("nil", J.Null);
        ("l", J.List [ J.Num 1.0; J.Str "x"; J.Obj [] ]);
      ]
  in
  let rendered = J.render v in
  Alcotest.(check bool) "round-trips" true (J.parse rendered = v);
  (* Integers render without a fractional part. *)
  Alcotest.(check string) "integer rendering" "[42,1.5]"
    (J.render (J.List [ J.Num 42.0; J.Num 1.5 ]))

let test_json_escapes () =
  Alcotest.(check string) "control chars escaped" "\"a\\nb\\tc\\\"d\\\\e\""
    (J.render (J.Str "a\nb\tc\"d\\e"));
  (match J.parse "\"\\u0041\\u00e9\"" with
  | J.Str s -> Alcotest.(check string) "unicode escapes decode to UTF-8" "A\xc3\xa9" s
  | _ -> Alcotest.fail "expected a string");
  match J.parse "\" spaced \\/ slash \"" with
  | J.Str s -> Alcotest.(check string) "escaped slash" " spaced / slash " s
  | _ -> Alcotest.fail "expected a string"

let test_json_raw_splicing () =
  Alcotest.(check string) "Raw rendered verbatim" "{\"report\":{\"pre\":[1]}}"
    (J.render (J.Obj [ ("report", J.Raw "{\"pre\":[1]}") ]))

let test_json_rejects_malformed () =
  let rejects s =
    Alcotest.(check bool) (Printf.sprintf "rejects %S" s) true
      (match J.parse s with exception J.Parse_error _ -> true | _ -> false)
  in
  rejects "";
  rejects "{";
  rejects "{\"a\":}";
  rejects "[1,]";
  rejects "\"unterminated";
  rejects "tru";
  rejects "{} trailing";
  rejects "1 2"

let test_json_accessors () =
  let j = J.parse "{\"a\":{\"b\":3},\"l\":[1,2],\"s\":\"x\"}" in
  Alcotest.(check (option int)) "nested member" (Some 3)
    (Option.bind (J.member "a" j) (J.member "b") |> Fun.flip Option.bind J.to_int_opt);
  Alcotest.(check (option string)) "string member" (Some "x")
    (Option.bind (J.member "s" j) J.to_string_opt);
  Alcotest.(check (option int)) "list length" (Some 2)
    (Option.map List.length (Option.bind (J.member "l" j) J.to_list_opt));
  Alcotest.(check bool) "missing member" true (J.member "zzz" j = None)

(* ------------------------------------------------------------------ *)
(* handle_line                                                        *)
(* ------------------------------------------------------------------ *)

let preamble =
  "void spin_lock(long *l);\nvoid spin_unlock(long *l);\nvoid schedule(void) __blocking;\n"

let src_v1 =
  preamble
  ^ "long the_lock;\n\
     int helper(int x) { return x + 1; }\n\
     int start_kernel(void) {\n\
     \  spin_lock(&the_lock);\n\
     \  int r = helper(1);\n\
     \  spin_unlock(&the_lock);\n\
     \  return r;\n\
     }\n"

let src_v2 =
  preamble
  ^ "long the_lock;\n\
     int helper(int x) { return x + 2; }\n\
     int start_kernel(void) {\n\
     \  spin_lock(&the_lock);\n\
     \  int r = helper(1);\n\
     \  spin_unlock(&the_lock);\n\
     \  return r;\n\
     }\n"

let check_request ?(id = 1) ?(program = "p") src =
  J.render
    (J.Obj
       [
         ("id", J.Num (float_of_int id));
         ("method", J.Str "check");
         ( "params",
           J.Obj
             [
               ("program", J.Str program);
               ( "files",
                 J.List [ J.Obj [ ("path", J.Str "t.kc"); ("source", J.Str src) ] ] );
             ] );
       ])

(* A check of several files. *)
let sources_request ~id ~program sources =
  J.render
    (J.Obj
       [
         ("id", J.Num (float_of_int id));
         ("method", J.Str "check");
         ( "params",
           J.Obj
             [
               ("program", J.Str program);
               ( "files",
                 J.List
                   (List.map
                      (fun (path, s) -> J.Obj [ ("path", J.Str path); ("source", J.Str s) ])
                      sources) );
             ] );
       ])

let get path j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path

let result_bool path j =
  match get ("result" :: path) j with Some (J.Bool b) -> Some b | _ -> None

let error_code j =
  Option.bind (get [ "error"; "code" ] j) J.to_int_opt

let respond t line =
  let resp, sd = Ivy.Serve.handle_line t line in
  (J.parse resp, sd)

let test_serve_cold_then_warm () =
  let t = Ivy.Serve.create ~capacity:2 () in
  let r1, _ = respond t (check_request src_v1) in
  Alcotest.(check (option bool)) "cold check is not warm" (Some false)
    (result_bool [ "warm" ] r1);
  Alcotest.(check (option int)) "id echoed" (Some 1) (get [ "id" ] r1 |> Fun.flip Option.bind J.to_int_opt);
  Alcotest.(check bool) "report present" true (get [ "result"; "report"; "diagnostics" ] r1 <> None);
  (* Byte-identical resubmit: no parse, no builds. *)
  let r2, _ = respond t (check_request ~id:2 src_v1) in
  Alcotest.(check (option bool)) "resubmit is warm" (Some true) (result_bool [ "warm" ] r2);
  Alcotest.(check (option bool)) "source reuse detected" (Some true)
    (result_bool [ "reused_source" ] r2);
  Alcotest.(check bool) "reports byte-identical" true
    (get [ "result"; "report" ] r1 = get [ "result"; "report" ] r2);
  (match get [ "result"; "stats"; "totals"; "builds" ] r2 with
  | Some (J.Num n) -> Alcotest.(check int) "zero builds on warm check" 0 (int_of_float n)
  | _ -> Alcotest.fail "stats.totals.builds missing");
  Alcotest.(check string) "src_digest is deterministic"
    (Ivy.Serve.src_digest [ ("a", "x") ])
    (Ivy.Serve.src_digest [ ("a", "x") ])

let test_serve_edit_rebuilds () =
  let t = Ivy.Serve.create () in
  ignore (respond t (check_request src_v1));
  let r, _ = respond t (check_request ~id:2 src_v2) in
  Alcotest.(check (option bool)) "edited check is not warm" (Some false)
    (result_bool [ "warm" ] r);
  Alcotest.(check (option bool)) "source changed" (Some false)
    (result_bool [ "reused_source" ] r);
  (match get [ "result"; "update"; "changed" ] r with
  | Some (J.List [ J.Str f ]) -> Alcotest.(check string) "only helper changed" "helper" f
  | _ -> Alcotest.fail "update.changed missing");
  (* The edited report matches what a brand-new daemon computes cold. *)
  let fresh = Ivy.Serve.create () in
  let cold, _ = respond fresh (check_request src_v2) in
  Alcotest.(check bool) "incremental report matches cold daemon" true
    (get [ "result"; "report" ] r = get [ "result"; "report" ] cold)

let test_serve_programs_are_isolated () =
  let t = Ivy.Serve.create () in
  ignore (respond t (check_request ~program:"a" src_v1));
  (* A different program with the same sources still parses fresh
     state but does not disturb program a's warmth. *)
  ignore (respond t (check_request ~id:2 ~program:"b" src_v2));
  let r, _ = respond t (check_request ~id:3 ~program:"a" src_v1) in
  Alcotest.(check (option bool)) "program a still warm" (Some true)
    (result_bool [ "warm" ] r)

let test_serve_stats_and_invalidate () =
  let t = Ivy.Serve.create () in
  ignore (respond t (check_request src_v1));
  let s, _ = respond t {|{"id":9,"method":"stats"}|} in
  (match get [ "result"; "resident" ] s with
  | Some (J.Num n) -> Alcotest.(check int) "one resident program" 1 (int_of_float n)
  | _ -> Alcotest.fail "resident missing");
  let inv, _ =
    respond t
      {|{"id":10,"method":"invalidate","params":{"program":"p","artifact":"cfg","param":"helper"}}|}
  in
  (match get [ "result"; "dropped" ] inv with
  | Some (J.Num n) ->
      Alcotest.(check bool) "targeted invalidate drops downstream" true (int_of_float n > 0)
  | _ -> Alcotest.fail "dropped missing");
  (* After invalidation the next check rebuilds. *)
  let r, _ = respond t (check_request ~id:11 src_v1) in
  Alcotest.(check (option bool)) "post-invalidate check rebuilds" (Some false)
    (result_bool [ "warm" ] r);
  let bad, _ = respond t {|{"id":12,"method":"invalidate","params":{"program":"zzz"}}|} in
  Alcotest.(check (option int)) "unknown program error" (Some 2) (error_code bad)

let test_serve_errors () =
  let t = Ivy.Serve.create () in
  let bad_json, _ = respond t "{not json" in
  Alcotest.(check (option int)) "parse error code" (Some (-32700)) (error_code bad_json);
  let no_method, _ = respond t {|{"id":1}|} in
  Alcotest.(check (option int)) "invalid request code" (Some (-32600)) (error_code no_method);
  let bad_method, _ = respond t {|{"id":1,"method":"frobnicate"}|} in
  Alcotest.(check (option int)) "unknown method code" (Some (-32601)) (error_code bad_method);
  let no_files, _ = respond t {|{"id":1,"method":"check","params":{}}|} in
  Alcotest.(check (option int)) "missing files code" (Some (-32602)) (error_code no_files);
  let bad_analysis, _ =
    respond t
      (J.render
         (J.Obj
            [
              ("id", J.Num 1.0);
              ("method", J.Str "check");
              ( "params",
                J.Obj
                  [
                    ( "files",
                      J.List
                        [ J.Obj [ ("path", J.Str "t.kc"); ("source", J.Str src_v1) ] ] );
                    ("only", J.List [ J.Str "nosuch" ]);
                  ] );
            ]))
  in
  Alcotest.(check (option int)) "unknown analysis code" (Some 3) (error_code bad_analysis);
  let syntax_err, _ = respond t (check_request "int f( {") in
  Alcotest.(check (option int)) "frontend error code" (Some 1) (error_code syntax_err);
  match get [ "error"; "message" ] syntax_err with
  | Some (J.Str m) ->
      Alcotest.(check bool) "frontend message names the failure" true
        (String.length m > 0)
  | _ -> Alcotest.fail "error.message missing"

let test_serve_shutdown () =
  let t = Ivy.Serve.create () in
  let resp, sd = Ivy.Serve.handle_line t {|{"id":1,"method":"shutdown"}|} in
  Alcotest.(check bool) "shutdown flag set" true sd;
  Alcotest.(check (option string)) "acknowledged" (Some "bye")
    (Option.bind (get [ "result" ] (J.parse resp)) J.to_string_opt);
  let _, sd' = Ivy.Serve.handle_line t (check_request src_v1) in
  Alcotest.(check bool) "check does not set the flag" false sd'

(* ------------------------------------------------------------------ *)
(* Mutational frontend fuzz                                           *)
(* ------------------------------------------------------------------ *)

(* [msg] names [file] with a [line:col] after it. *)
let names_location ~file msg =
  let prefix = file ^ ":" in
  let n = String.length msg and p = String.length prefix in
  let rec digits i = if i < n && msg.[i] >= '0' && msg.[i] <= '9' then digits (i + 1) else i in
  let located i =
    let j = digits i in
    j > i && j < n && msg.[j] = ':' && digits (j + 1) > j + 1
  in
  let rec scan k = k + p <= n && ((String.sub msg k p = prefix && located (k + p)) || scan (k + 1)) in
  scan 0

(* Seeded byte mutations (replace, insert, delete; KC-alphabet and
   arbitrary bytes) of the corpus file no other unit depends on, each
   sent with the rest of the corpus as a check request. Every answer
   is a report or a frontend error located in the mutated file; no
   exception escapes the daemon, and it still answers afterwards. *)
let test_serve_frontend_mutants () =
  let t = Ivy.Serve.create () in
  let sources = Kernel.Corpus.sources () in
  let file, original = List.nth sources (List.length sources - 1) in
  let rng = Random.State.make [| 19 |] in
  let alphabet = "{}()[];,.*&|^~!<>=+-/%?:#'\"\\ \t\n_xyz019" in
  let byte () =
    if Random.State.bool rng then alphabet.[Random.State.int rng (String.length alphabet)]
    else Char.chr (Random.State.int rng 256)
  in
  let mutate src =
    let n = String.length src in
    let i = Random.State.int rng n in
    match Random.State.int rng 3 with
    | 0 -> String.sub src 0 i ^ String.make 1 (byte ()) ^ String.sub src (i + 1) (n - i - 1)
    | 1 -> String.sub src 0 i ^ String.make 1 (byte ()) ^ String.sub src i (n - i)
    | _ -> String.sub src 0 i ^ String.sub src (i + 1) (n - i - 1)
  in
  let reports = ref 0 and frontend_errors = ref 0 in
  for id = 1 to 200 do
    let rec apply k src = if k = 0 then src else apply (k - 1) (mutate src) in
    let mutant = apply (1 + Random.State.int rng 3) original in
    let srcs = List.map (fun (path, s) -> (path, if path = file then mutant else s)) sources in
    let resp, _ = respond t (sources_request ~id ~program:"mutants" srcs) in
    match (get [ "result" ] resp, error_code resp, get [ "error"; "message" ] resp) with
    | Some _, _, _ -> (
        incr reports;
        (* The streaming fingerprint writes the reference's bytes on
           every mutant that parses, too. *)
        match Ref_fingerprint.mismatch (Kc.Typecheck.check_sources srcs) with
        | None -> ()
        | Some what -> Alcotest.failf "mutant %d: %s digest differs from the reference" id what)
    | None, Some 1, Some (J.Str msg) when names_location ~file msg -> incr frontend_errors
    | _ -> Alcotest.failf "mutant %d: answer is neither a report nor a located frontend error: %s" id
             (J.render resp)
  done;
  Alcotest.(check int) "every mutant answered" 200 (!reports + !frontend_errors);
  Alcotest.(check bool) "some mutants fail in the frontend" true (!frontend_errors > 0);
  let s, _ = respond t {|{"id":201,"method":"stats"}|} in
  Alcotest.(check bool) "stats answered after the mutants" true (get [ "result"; "requests" ] s <> None)

(* Only the units whose bytes changed are lexed and parsed again: the
   update object counts them. *)
let test_serve_reparses_changed_units () =
  let t = Ivy.Serve.create () in
  let sources = Kernel.Workloads.sources () in
  let last = List.length sources - 1 in
  let touched =
    List.mapi (fun i (p, s) -> (p, if i = last then s ^ "/* touched */\n" else s)) sources
  in
  let send id srcs = fst (respond t (sources_request ~id ~program:"touch" srcs)) in
  let reparsed r = Option.bind (get [ "result"; "update"; "reparsed" ] r) J.to_int_opt in
  Alcotest.(check (option int)) "a first check parses every unit" (Some (List.length sources))
    (reparsed (send 1 sources));
  let touch = send 2 touched in
  Alcotest.(check (option int)) "a comment-only touch reparses its unit" (Some 1)
    (reparsed touch);
  Alcotest.(check (option bool)) "and builds nothing" (Some true) (result_bool [ "warm" ] touch);
  Alcotest.(check (option int)) "a byte-identical resubmit parses nothing" (Some 0)
    (reparsed (send 3 touched))

(* The AST cutoff: a request whose every AST equals the last parse's
   is answered without elaboration. At every step of a daemon sequence
   the report equals a cold daemon's on the same sources. *)
let test_serve_ast_cutoff_equals_cold () =
  let t = Ivy.Serve.create () in
  let a = ("a.kc", "typedef long T;\nT width(void);\n") in
  let b_src body = "T twice(T x) { return " ^ body ^ "; }\nint thrice(int x) { return x * 3; }\n" in
  let b body = ("b.kc", b_src body ^ "/* touched */\n") in
  let moved = ("b.kc", "/* moved */\n" ^ snd (b "x * 2")) in
  let id = ref 0 in
  let step msg srcs =
    incr id;
    let r = fst (respond t (sources_request ~id:!id ~program:"cut" srcs)) in
    let cold = fst (respond (Ivy.Serve.create ()) (sources_request ~id:!id ~program:"cut" srcs)) in
    Alcotest.(check bool) (msg ^ ": report equals cold") true
      (get [ "result"; "report" ] r <> None
      && get [ "result"; "report" ] r = get [ "result"; "report" ] cold);
    r
  in
  let changed r =
    match get [ "result"; "update"; "changed" ] r with
    | Some (J.List l) -> List.filter_map J.to_string_opt l
    | _ -> [ "<missing>" ]
  in
  let builds r = Option.bind (get [ "result"; "stats"; "totals"; "builds" ] r) J.to_int_opt in
  ignore (step "cold" [ a; ("b.kc", b_src "x * 2") ]);
  let r = step "touch" [ a; b "x * 2" ] in
  Alcotest.(check (option bool)) "touch: unchanged" (Some true)
    (result_bool [ "update"; "unchanged" ] r);
  Alcotest.(check (option int)) "touch: zero builds" (Some 0) (builds r);
  let r = step "body edit of the touched unit" [ a; b "x + x" ] in
  Alcotest.(check (option bool)) "edit: not warm" (Some false) (result_bool [ "warm" ] r);
  Alcotest.(check (list string)) "edit: twice changed" [ "twice" ] (changed r);
  let r = step "revert" [ a; b "x * 2" ] in
  Alcotest.(check (list string)) "revert: twice changed" [ "twice" ] (changed r);
  let r = step "resubmit" [ a; b "x * 2" ] in
  Alcotest.(check (option bool)) "resubmit: reused source" (Some true)
    (result_bool [ "reused_source" ] r);
  Alcotest.(check (option bool)) "resubmit: warm" (Some true) (result_bool [ "warm" ] r);
  (* A comment above a function shifts every line below it: not cut off. *)
  let r = step "comment above" [ a; moved ] in
  Alcotest.(check (list string)) "comment above: moved functions changed" [ "twice"; "thrice" ]
    (changed r);
  (* An earlier unit's typedef change re-elaborates the later unit,
     whose AST is reused as it is. *)
  let r = step "typedef change" [ ("a.kc", "typedef int T;\nT width(void);\n"); moved ] in
  Alcotest.(check (option int)) "typedef change: one unit reparsed" (Some 1)
    (Option.bind (get [ "result"; "update"; "reparsed" ] r) J.to_int_opt);
  Alcotest.(check (list string)) "typedef change: twice changed" [ "twice" ] (changed r)

(* The frontend cannot take the daemon down. A call in a global
   initializer used to raise [Invalid_argument] out of [handle_line];
   it is a located type error now, as is [sizeof(void)], which used to
   escape as an unlocated layout error. A failed check leaves the
   program's entry as it was. *)
let test_serve_survives_frontend_exceptions () =
  let t = Ivy.Serve.create () in
  let r, _ =
    respond t
      {|{"id":1,"method":"check","params":{"files":[{"path":"a.kc","source":"int f(void); int g = f();"}]}}|}
  in
  Alcotest.(check (option int)) "global initializer call: frontend error" (Some 1)
    (error_code r);
  (match get [ "error"; "message" ] r with
  | Some (J.Str m) ->
      Alcotest.(check bool) "located in a.kc" true (names_location ~file:"a.kc" m)
  | _ -> Alcotest.fail "error.message missing");
  let s, _ = respond t {|{"id":2,"method":"stats"}|} in
  Alcotest.(check bool) "stats answered" true (get [ "result"; "requests" ] s <> None);
  ignore (respond t (check_request ~id:3 src_v1));
  let r, _ = respond t (check_request ~id:4 "int f(void) { return sizeof(void); }") in
  Alcotest.(check (option int)) "sizeof(void): frontend error" (Some 1) (error_code r);
  let r, _ = respond t (check_request ~id:5 src_v1) in
  Alcotest.(check (option bool)) "entry untouched: the resubmit reuses its source" (Some true)
    (result_bool [ "reused_source" ] r);
  Alcotest.(check (option bool)) "and is warm" (Some true) (result_bool [ "warm" ] r)

(* Pointer arithmetic on [void *] and a definition that conflicts with
   its prototype are located type errors, not programs that check and
   later fail in the VM or run under the wrong signature. *)
let test_serve_rejects_unsound_programs () =
  let t = Ivy.Serve.create () in
  List.iteri
    (fun i src ->
      let r, _ = respond t (check_request ~id:i src) in
      Alcotest.(check (option int)) src (Some 1) (error_code r);
      match get [ "error"; "message" ] r with
      | Some (J.Str m) -> Alcotest.(check bool) "located" true (names_location ~file:"t.kc" m)
      | _ -> Alcotest.fail "error.message missing")
    [
      "long f(void) { char buf[4]; void *p; p = buf; p = p + 1; return 0; }";
      "int f(int a);\nint f(int a, int b) { return a + b; }";
      "int f(void);\nlong f(void) { return 1; }";
    ]

(* ------------------------------------------------------------------ *)
(* Socket loop                                                        *)
(* ------------------------------------------------------------------ *)

(* Connect to [socket], retrying while the daemon starts. *)
let connect socket =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.01;
        go (tries - 1)
  in
  go 500

(* A reader of [fd]'s lines: each call returns the next line, without
   its newline, within [timeout] seconds; [None] on timeout, end of
   file or a socket error. Bytes past the line wait for the next call. *)
let line_reader fd : ?timeout:float -> unit -> string option =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  fun ?(timeout = 10.0) () ->
    let deadline = Unix.gettimeofday () +. timeout in
    let rec go () =
      match String.index_opt (Buffer.contents buf) '\n' with
      | Some i ->
          let s = Buffer.contents buf in
          Buffer.clear buf;
          Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
          Some (String.sub s 0 i)
      | None -> (
          let left = deadline -. Unix.gettimeofday () in
          if left <= 0.0 then None
          else
            match Unix.select [ fd ] [] [] left with
            | [], _, _ -> None
            | _ -> (
                match Unix.read fd chunk 0 (Bytes.length chunk) with
                | 0 -> None
                | n ->
                    Buffer.add_subbytes buf chunk 0 n;
                    go ()))
    in
    try go () with Unix.Unix_error _ -> None

(* One request on a fresh connection, answered within [timeout]. *)
let rpc_within ?timeout socket line : J.t option =
  match connect socket with
  | exception Unix.Unix_error _ -> None
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let payload = line ^ "\n" in
          match Unix.write_substring fd payload 0 (String.length payload) with
          | exception Unix.Unix_error _ -> None
          | _ -> Option.map J.parse (line_reader fd ?timeout ()))

(* The daemon forked on a fresh socket, polling [watch] every [poll_ms]
   (default 50) when given. [k] runs against it; afterwards the daemon
   is asked to shut down and killed if it does not answer. Returns
   whether the shutdown was acknowledged and how the daemon exited. *)
let with_daemon ?watch ?(poll_ms = 50) ?log name (k : string -> unit) :
    bool * Unix.process_status =
  let socket = Printf.sprintf "ivy-%s-%d.sock" name (Unix.getpid ()) in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      (try Ivy.Serve.run ~socket ?watch ~poll_ms ?log (Ivy.Serve.create ())
       with _ -> Unix._exit 2);
      Unix._exit 0
  | pid ->
      let outcome = try Ok (k socket) with e -> Error e in
      let bye = rpc_within socket {|{"id":99,"method":"shutdown"}|} in
      if bye = None then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      let _, status = Unix.waitpid [] pid in
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      (match outcome with Ok () -> () | Error e -> raise e);
      (Option.bind (Option.bind bye (get [ "result" ])) J.to_string_opt = Some "bye", status)

let check_daemon_exit (bye, status) =
  Alcotest.(check bool) "shutdown acknowledged" true bye;
  Alcotest.(check bool) "daemon exited cleanly" true (status = Unix.WEXITED 0)

(* A client that sends a check and closes its socket before the answer
   arrives costs the daemon that client only: the response write must
   fail with EPIPE instead of killing the process with SIGPIPE, and
   the daemon must go on answering others. *)
let test_serve_survives_early_disconnect () =
  with_daemon "early-close" (fun socket ->
      let fd = connect socket in
      let line = check_request src_v1 ^ "\n" in
      ignore (Unix.write_substring fd line 0 (String.length line));
      Unix.close fd;
      let stats =
        match Ivy.Serve.request ~socket {|{"id":2,"method":"stats"}|} with
        | r -> Some (J.parse r)
        | exception Unix.Unix_error _ -> None
      in
      Alcotest.(check bool) "stats answered after the early close" true
        (Option.bind stats (get [ "result"; "requests" ]) <> None))
  |> check_daemon_exit

let corpus_check id =
  Printf.sprintf {|{"id":%d,"method":"check","params":{"program":"corpus","corpus":true}}|} id

let stats_answered socket =
  Option.bind (rpc_within socket {|{"id":1000,"method":"stats"}|}) (get [ "result"; "requests" ])
  <> None

(* A client that sends 40 corpus checks (~25 KB of response each) and
   reads nothing must not stall the daemon: with blocking writes it sat
   in [write] once the socket buffer filled, and another client's
   [stats] went unanswered. *)
let test_serve_slow_reader () =
  with_daemon "slow-reader" (fun socket ->
      let hog = connect socket in
      let lines = String.concat "" (List.init 40 (fun i -> corpus_check (i + 1) ^ "\n")) in
      ignore (Unix.write_substring hog lines 0 (String.length lines));
      let answered = stats_answered socket in
      Unix.close hog;
      Alcotest.(check bool) "stats answered while a client does not read" true answered)
  |> check_daemon_exit

(* A client that leaves more than the output cap unread is dropped:
   it gets what was already written, then end of file, and far fewer
   than the 300 responses it asked for. *)
let test_serve_drops_unread_client () =
  with_daemon "unread" (fun socket ->
      let hog = connect socket in
      let n = 300 in
      let lines = String.concat "" (List.init n (fun i -> corpus_check (i + 1) ^ "\n")) in
      ignore (Unix.write_substring hog lines 0 (String.length lines));
      Alcotest.(check bool) "stats answered" true (stats_answered socket);
      let next = line_reader hog in
      let rec count k = match next () with Some _ -> count (k + 1) | None -> k in
      let got = count 0 in
      Unix.close hog;
      Alcotest.(check bool) (Printf.sprintf "dropped after %d of %d responses" got n) true
        (got > 0 && got < n))
  |> check_daemon_exit

(* A request line with no newline in sight is cut off at the line cap
   (16 MiB): the client gets a -32600 error and end of file, and the
   daemon goes on answering others. *)
let test_serve_line_cap () =
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe old_pipe) @@ fun () ->
  with_daemon "line-cap" (fun socket ->
      let big = connect socket in
      let payload = Bytes.make ((16 lsl 20) + 1) 'x' in
      (try ignore (Unix.write big payload 0 (Bytes.length payload))
       with Unix.Unix_error _ -> ());
      let next = line_reader big in
      let resp = next () in
      let eof = next () = None in
      Unix.close big;
      Alcotest.(check (option int)) "over-cap line: invalid request" (Some (-32600))
        (Option.bind (Option.map J.parse resp) error_code);
      Alcotest.(check bool) "and the client is closed" true eof;
      Alcotest.(check bool) "stats answered after the over-cap line" true
        (stats_answered socket))
  |> check_daemon_exit

(* A watched directory holding one file, and the log the daemon
   appends to. *)
type watch_dir = {
  dir : string;
  file : string; (* a.kc, the one watched source *)
  write : string -> unit; (* replace [file]'s bytes *)
  log : string -> unit; (* the daemon's log sink *)
  log_lines : unit -> string list;
  wait_for : string -> (string -> bool) -> string; (* the first log line [pred] holds for *)
  prefix : string; (* every watch summary line starts with it *)
}

(* [k] runs on a fresh watched directory holding [src] as a.kc; the
   directory and the log are removed after. *)
let with_watch_dir name src k =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ivy-%s-%d" name (Unix.getpid ()))
  in
  let file = Filename.concat dir "a.kc" in
  let log_path = dir ^ ".log" in
  (* Written aside and renamed in, so no poll sees a half-written file. *)
  let write s =
    Out_channel.with_open_bin (file ^ ".tmp") (fun oc -> output_string oc s);
    Sys.rename (file ^ ".tmp") file
  in
  let log_lines () =
    match In_channel.with_open_bin log_path In_channel.input_all with
    | s -> List.filter (fun l -> l <> "") (String.split_on_char '\n' s)
    | exception Sys_error _ -> []
  in
  let wait_for what pred =
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec go () =
      match List.find_opt pred (log_lines ()) with
      | Some l -> l
      | None when Unix.gettimeofday () > deadline -> Alcotest.failf "no %s logged" what
      | None ->
          Unix.sleepf 0.02;
          go ()
    in
    go ()
  in
  let log s =
    Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644 log_path (fun oc ->
        output_string oc (s ^ "\n"))
  in
  Unix.mkdir dir 0o755;
  write src;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ file; log_path ];
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      k { dir; file; write; log; log_lines; wait_for; prefix = Printf.sprintf "[watch] %s: " dir })

let watch_src =
  preamble
  ^ "long the_lock;\n\
     int start_kernel(void) {\n\
     \  spin_lock(&the_lock);\n\
     \  schedule();\n\
     \  spin_unlock(&the_lock);\n\
     \  return 0;\n\
     }\n"

(* --watch re-checks a directory when its bytes change: the first poll
   rebuilds and counts the same diagnostics a check request reports, a
   poll with unchanged bytes logs nothing, and a comment-only touch is
   warm. *)
let test_serve_watch () =
  with_watch_dir "watch" watch_src @@ fun w ->
  let expected =
    let r, _ =
      respond (Ivy.Serve.create ()) (sources_request ~id:1 ~program:"w" [ (w.file, watch_src) ])
    in
    match get [ "result"; "report"; "diagnostics" ] r with
    | Some (J.List l) -> List.length l
    | _ -> Alcotest.fail "report.diagnostics missing"
  in
  Alcotest.(check bool) "the watched source has findings" true (expected > 0);
  with_daemon ~watch:w.dir ~log:w.log "watch" (fun _ ->
      let first = w.wait_for "first poll" (String.starts_with ~prefix:w.prefix) in
      Alcotest.(check string) "first poll rebuilds"
        (Printf.sprintf "%s%d diagnostics (rebuilt)" w.prefix expected)
        first;
      let before = w.log_lines () in
      w.write watch_src;
      Unix.sleepf 0.3;
      Alcotest.(check (list string)) "unchanged bytes log nothing" before (w.log_lines ());
      w.write (watch_src ^ "/* touched */\n");
      let warm =
        w.wait_for "touch poll" (fun l ->
            String.starts_with ~prefix:w.prefix l && not (List.mem l before))
      in
      Alcotest.(check string) "a comment-only touch is warm"
        (Printf.sprintf "%s%d diagnostics (all artifacts warm)" w.prefix expected)
        warm)
  |> check_daemon_exit

(* Requests do not trigger a poll: with the next poll 100 s away, an
   edit followed by two requests (the second is read only after the
   loop has finished with the first) leaves the one startup poll line. *)
let test_serve_watch_polls_on_deadline () =
  with_watch_dir "watch-deadline" watch_src @@ fun w ->
  with_daemon ~watch:w.dir ~poll_ms:100_000 ~log:w.log "watch-deadline" (fun socket ->
      ignore (w.wait_for "first poll" (String.starts_with ~prefix:w.prefix));
      w.write (watch_src ^ "/* edited */\n");
      Alcotest.(check bool) "stats answered" true (stats_answered socket);
      Alcotest.(check bool) "stats answered again" true (stats_answered socket);
      Alcotest.(check int) "one poll logged" 1
        (List.length (List.filter (String.starts_with ~prefix:w.prefix) (w.log_lines ()))))
  |> check_daemon_exit

let () =
  Alcotest.run "serve"
    [
      ( "jsonx",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "raw splicing" `Quick test_json_raw_splicing;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects_malformed;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "cold then warm" `Quick test_serve_cold_then_warm;
          Alcotest.test_case "edit rebuilds" `Quick test_serve_edit_rebuilds;
          Alcotest.test_case "programs isolated" `Quick test_serve_programs_are_isolated;
          Alcotest.test_case "stats and invalidate" `Quick test_serve_stats_and_invalidate;
          Alcotest.test_case "protocol errors" `Quick test_serve_errors;
          Alcotest.test_case "shutdown" `Quick test_serve_shutdown;
          Alcotest.test_case "mutated sources: located frontend errors" `Quick
            test_serve_frontend_mutants;
          Alcotest.test_case "reparses only changed units" `Quick
            test_serve_reparses_changed_units;
          Alcotest.test_case "AST cutoff: every step equals cold" `Quick
            test_serve_ast_cutoff_equals_cold;
          Alcotest.test_case "survives frontend exceptions" `Quick
            test_serve_survives_frontend_exceptions;
          Alcotest.test_case "rejects void arithmetic and prototype conflicts" `Quick
            test_serve_rejects_unsound_programs;
          Alcotest.test_case "survives an early disconnect" `Quick
            test_serve_survives_early_disconnect;
          Alcotest.test_case "a client that never reads stalls only itself" `Quick
            test_serve_slow_reader;
          Alcotest.test_case "drops a client past the output cap" `Quick
            test_serve_drops_unread_client;
          Alcotest.test_case "cuts off an over-cap request line" `Quick test_serve_line_cap;
          Alcotest.test_case "watch polls by content" `Quick test_serve_watch;
          Alcotest.test_case "watch polls on its deadline, not per request" `Quick
            test_serve_watch_polls_on_deadline;
        ] );
    ]
