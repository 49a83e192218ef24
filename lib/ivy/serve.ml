(* The `ivy serve` incremental analysis daemon.

   Long-running process that keeps one warm {!Engine.Context} per
   program in an {!Engine.Graph.Lru} and answers newline-delimited
   JSON-RPC over a Unix socket:

     {"id":1,"method":"check","params":{"program":"p","files":
       [{"path":"a.kc","source":"..."}],"only":["blockstop"]}}
     {"id":2,"method":"stats"}
     {"id":3,"method":"invalidate","params":{"program":"p",
       "artifact":"cfg","param":"sys_fork"}}
     {"id":4,"method":"shutdown"}

   A [check] of a program the daemon has seen re-fingerprints the
   submitted sources, swaps them in with {!Engine.Context.update}
   (which push-invalidates exactly the artifacts the edit reaches) and
   re-runs the analyses over the warm graph; a resubmit of
   byte-identical sources skips parsing entirely, and otherwise only
   the units whose bytes (or typedef names in scope) changed are lexed
   and parsed again ({!Kc.Typecheck.parse_units} with the entry's last
   parse as [prev]). When every unit's AST then equals the last
   parse's, as after a comment-only touch, the request skips
   elaboration and fingerprinting and answers with the unchanged
   update. Every [check] response carries [warm] (no
   artifact was built), the units [reparsed] and the per-request stats
   delta, so clients and the CI smoke job can assert incrementality
   rather than trust it. A request whose frontend fails gets an error
   response and leaves its program's entry as it was.

   The wire loop is single-domain (contexts and their graphs are not
   shareable across domains) and answers each complete request line
   as it reads it. Client sockets are non-blocking: a response goes
   into its client's output queue and is written as the socket
   accepts it, so a client that never reads stalls only itself; one
   that leaves more than [max_queued] bytes unread is dropped. A
   request line longer than [max_line] bytes gets an error and its
   client is closed. *)

module J = Jsonx
module Ctx = Engine.Context
module G = Engine.Graph

type entry = {
  e_ctxt : Ctx.t;
  mutable e_src : string; (* digest of raw sources *)
  mutable e_parsed : Kc.Typecheck.parsed; (* their parse, the [prev] of the next *)
}

type t = {
  lru : entry G.Lru.t;
  mutable requests : int;
}

(* [jobs] is ignored: kept for perfbench's callers. *)
let create ?(capacity = 8) ?jobs:_ () : t = { lru = G.Lru.create ~capacity; requests = 0 }

let src_digest (sources : (string * string) list) : string =
  Digest.to_hex
    (Digest.string (String.concat "\x00" (List.concat_map (fun (p, s) -> [ p; s ]) sources)))

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)
(* ------------------------------------------------------------------ *)

type check_req = {
  c_program : string;
  c_sources : (string * string) list;
  c_digest : string;
  c_only : string list;
}

type request =
  | Check of check_req
  | Stats
  | Invalidate of { i_program : string; i_artifact : string option; i_param : string }
  | Shutdown

(* One decoded line: the id to echo, and either a request or an error
   (code, message) in JSON-RPC style. *)
type decoded = { d_id : J.t; d_req : (request, int * string) result }

let e_parse = -32700
let e_invalid = -32600
let e_method = -32601
let e_params = -32602
let e_frontend = 1
let e_unknown_program = 2
let e_unknown_analysis = 3
let e_internal = 4

let decode_check (params : J.t) : (request, int * string) result =
  let program =
    match J.member "program" params with Some (J.Str s) -> s | _ -> "default"
  in
  let only =
    match J.member "only" params with
    | Some (J.List l) -> List.filter_map J.to_string_opt l
    | _ -> []
  in
  match List.find_opt (fun n -> Checks.find n = None) only with
  | Some n -> Error (e_unknown_analysis, Printf.sprintf "unknown analysis %s" n)
  | None -> (
      let sources =
        match J.member "corpus" params with
        | Some (J.Bool true) -> Ok (Kernel.Corpus.sources ())
        | _ -> (
            match J.member "files" params with
            | Some (J.List fs) -> (
                let file f =
                  match (J.member "path" f, J.member "source" f) with
                  | Some (J.Str p), Some (J.Str s) -> Some (p, s)
                  | _ -> None
                in
                match List.map file fs with
                | l when List.for_all Option.is_some l -> Ok (List.filter_map Fun.id l)
                | _ -> Error "files must be [{\"path\":...,\"source\":...}]")
            | _ -> Error "check needs params.files or params.corpus:true")
      in
      match sources with
      | Error msg -> Error (e_params, msg)
      | Ok [] -> Error (e_params, "empty file list")
      | Ok sources ->
          Ok
            (Check
               {
                 c_program = program;
                 c_sources = sources;
                 c_digest = src_digest sources;
                 c_only = only;
               }))

let decode_line (line : string) : decoded =
  match J.parse line with
  | exception J.Parse_error msg ->
      { d_id = J.Null; d_req = Error (e_parse, "bad JSON: " ^ msg) }
  | j -> (
      let id = Option.value (J.member "id" j) ~default:J.Null in
      let params = Option.value (J.member "params" j) ~default:(J.Obj []) in
      match J.member "method" j with
      | Some (J.Str "check") -> { d_id = id; d_req = decode_check params }
      | Some (J.Str "stats") -> { d_id = id; d_req = Ok Stats }
      | Some (J.Str "invalidate") ->
          let program =
            match J.member "program" params with Some (J.Str s) -> s | _ -> "default"
          in
          let artifact =
            match J.member "artifact" params with Some (J.Str s) -> Some s | _ -> None
          in
          let param =
            match J.member "param" params with Some (J.Str s) -> s | _ -> ""
          in
          { d_id = id; d_req = Ok (Invalidate { i_program = program; i_artifact = artifact; i_param = param }) }
      | Some (J.Str "shutdown") -> { d_id = id; d_req = Ok Shutdown }
      | Some (J.Str m) -> { d_id = id; d_req = Error (e_method, "unknown method " ^ m) }
      | _ -> { d_id = id; d_req = Error (e_invalid, "missing method") })

(* ------------------------------------------------------------------ *)
(* Handlers                                                           *)
(* ------------------------------------------------------------------ *)

let frontend_msg = function
  | Kc.Typecheck.Type_error (msg, loc) ->
      Some (Printf.sprintf "type error: %s at %s" msg (Kc.Loc.to_string loc))
  | Kc.Parser.Error (msg, loc) ->
      Some (Printf.sprintf "parse error: %s at %s" msg (Kc.Loc.to_string loc))
  | Kc.Lexer.Error (msg, loc) ->
      Some (Printf.sprintf "lex error: %s at %s" msg (Kc.Loc.to_string loc))
  | _ -> None

(* The frontend never takes the daemon down: an exception that is not a
   located frontend error is answered as an internal error. *)
let frontend (f : unit -> 'a) : ('a, int * string) result =
  match f () with
  | r -> Ok r
  | exception e -> (
      match frontend_msg e with
      | Some m -> Error (e_frontend, m)
      | None -> Error (e_internal, "internal error: " ^ Printexc.to_string e))

(* Parse [sources] with [prev] as the last parse, then elaborate
   unless every unit's AST equals [prev]'s (a comment-only touch):
   [check_units] reads nothing but the ASTs, so it would rebuild the
   program already served, and [None] says so. *)
let reparse ~prev (sources : (string * string) list) :
    (Kc.Typecheck.parsed * Kc.Ir.program option, int * string) result =
  frontend (fun () ->
      let parsed = Kc.Typecheck.parse_units ~prev sources in
      if Kc.Typecheck.same_asts prev parsed then (parsed, None)
      else (parsed, Some (Kc.Typecheck.check_units parsed)))

let update_json (u : Ctx.update) ~reparsed : J.t =
  let names l = J.List (List.map (fun f -> J.Str f) l) in
  J.Obj
    [
      ("unchanged", J.Bool u.Ctx.u_unchanged);
      ("changed", names u.Ctx.u_changed);
      ("added", names u.Ctx.u_added);
      ("removed", names u.Ctx.u_removed);
      ("header_changed", J.Bool u.Ctx.u_header_changed);
      ("dropped", J.Num (float_of_int u.Ctx.u_dropped));
      ("reparsed", J.Num (float_of_int reparsed));
    ]

let no_update : Ctx.update =
  {
    Ctx.u_changed = [];
    u_added = [];
    u_removed = [];
    u_header_changed = false;
    u_unchanged = true;
    u_dropped = 0;
  }

(* Parse [r]'s sources with its program's last parse as [prev] (not
   at all when the digest is unchanged), swap them in and run the
   analyses. When every AST equals the last parse's, nothing is
   elaborated, fingerprinted or swapped: the new parse and digest are
   stored and the update is the unchanged one. The results come back
   beside the response body, so [--watch] counts diagnostics without
   re-reading the JSON. *)
let handle_check (t : t) (r : check_req) :
    (bool * (string * Engine.Diag.t list) list * J.t, int * string) result =
  let entry =
    match G.Lru.find t.lru r.c_program with
    | Some e when String.equal e.e_src r.c_digest ->
        (* Byte-identical resubmit: no parse, no fingerprinting. *)
        Ok (e, no_update, 0, true)
    | Some e ->
        Result.map
          (fun (pu, p) ->
            let u = Option.fold ~none:no_update ~some:(Ctx.update e.e_ctxt) p in
            e.e_src <- r.c_digest;
            e.e_parsed <- pu;
            (e, u, Kc.Typecheck.reparsed pu, false))
          (reparse ~prev:e.e_parsed r.c_sources)
    | None ->
        Result.map
          (fun (pu, p) ->
            let e = { e_ctxt = Ctx.create p; e_src = r.c_digest; e_parsed = pu } in
            ignore (G.Lru.add t.lru r.c_program e);
            (e, no_update, Kc.Typecheck.reparsed pu, false))
          (frontend (fun () ->
               let pu = Kc.Typecheck.parse_units r.c_sources in
               (pu, Kc.Typecheck.check_units pu)))
  in
  Result.map
    (fun (e, update, reparsed, reused_source) ->
      let before = Ctx.stats e.e_ctxt in
      let results = Checks.run_all ~only:r.c_only e.e_ctxt in
      let delta = G.delta ~before (Ctx.stats e.e_ctxt) in
      let warm = G.total_builds delta = 0 in
      ( warm,
        results,
        J.Obj
          [
            ("program", J.Str r.c_program);
            ("warm", J.Bool warm);
            ("reused_source", J.Bool reused_source);
            ("update", update_json update ~reparsed);
            ("report", J.Raw (String.trim (Report_fmt.render_diags_json results)));
            ("stats", J.Raw (String.trim (Report_fmt.render_stats_json delta)));
          ] ))
    entry

let handle_stats (t : t) : J.t =
  let programs =
    G.Lru.fold
      (fun id e acc ->
        J.Obj
          [
            ("program", J.Str id);
            ("fingerprint", J.Str (Ctx.program_fingerprint e.e_ctxt));
            ( "stats",
              J.Raw (String.trim (Report_fmt.render_stats_json (Ctx.stats e.e_ctxt))) );
          ]
        :: acc)
      t.lru []
  in
  J.Obj
    [
      ("programs", J.List programs);
      ("resident", J.Num (float_of_int (G.Lru.size t.lru)));
      ("capacity", J.Num (float_of_int (G.Lru.capacity t.lru)));
      ("evictions", J.Num (float_of_int (G.Lru.evictions t.lru)));
      ("requests", J.Num (float_of_int t.requests));
    ]

let handle_invalidate (t : t) ~program ~artifact ~param : (J.t, int * string) result =
  match G.Lru.find t.lru program with
  | None -> Error (e_unknown_program, "unknown program " ^ program)
  | Some e ->
      let dropped =
        match artifact with
        | None -> Ctx.invalidate_all e.e_ctxt
        | Some name -> Ctx.invalidate e.e_ctxt (G.key ~param name)
      in
      Ok (J.Obj [ ("program", J.Str program); ("dropped", J.Num (float_of_int dropped)) ])

let render_error id code msg =
  J.render
    (J.Obj
       [
         ("id", id);
         ("error", J.Obj [ ("code", J.Num (float_of_int code)); ("message", J.Str msg) ]);
       ])

let handle_line (t : t) (line : string) : string * bool =
  let d = decode_line line in
  t.requests <- t.requests + 1;
  let reply = function
    | Ok body -> J.render (J.Obj [ ("id", d.d_id); ("result", body) ])
    | Error (code, msg) -> render_error d.d_id code msg
  in
  match d.d_req with
  | Error e -> (reply (Error e), false)
  | Ok (Check r) -> (reply (Result.map (fun (_, _, body) -> body) (handle_check t r)), false)
  | Ok Stats -> (reply (Ok (handle_stats t)), false)
  | Ok (Invalidate { i_program; i_artifact; i_param }) ->
      (reply (handle_invalidate t ~program:i_program ~artifact:i_artifact ~param:i_param), false)
  | Ok Shutdown -> (reply (Ok (J.Str "bye")), true)

(* ------------------------------------------------------------------ *)
(* --watch: poll a directory of .kc files                             *)
(* ------------------------------------------------------------------ *)

let watch_sources (dir : string) : (string * string) list =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n ".kc")
      |> List.sort String.compare
      |> List.filter_map (fun n ->
             let path = Filename.concat dir n in
             try
               let ic = open_in_bin path in
               let s = really_input_string ic (in_channel_length ic) in
               close_in ic;
               Some (path, s)
             with Sys_error _ -> None)

(* Re-check [dir] when any .kc file changed since last poll; log a
   one-line summary (the daemon's stdout is the watch report). *)
let watch_poll (t : t) ~(log : string -> unit) (dir : string) (last : string ref) : unit =
  let sources = watch_sources dir in
  let digest = src_digest sources in
  if sources <> [] && not (String.equal digest !last) then begin
    last := digest;
    match
      handle_check t
        { c_program = "watch:" ^ dir; c_sources = sources; c_digest = digest; c_only = [] }
    with
    | Error (_, msg) -> log (Printf.sprintf "[watch] %s: %s" dir msg)
    | Ok (warm, results, _) ->
        log
          (Printf.sprintf "[watch] %s: %d diagnostics (%s)" dir
             (List.length (List.concat_map snd results))
             (if warm then "all artifacts warm" else "rebuilt"))
  end

(* ------------------------------------------------------------------ *)
(* Socket loop                                                        *)
(* ------------------------------------------------------------------ *)

(* The longest request line read; a longer one is answered with an
   error and its client closed. *)
let max_line = 16 lsl 20

(* Unread response bytes a client may leave queued and still be sent
   another response; one more request drops it. *)
let max_queued = 4 lsl 20

type client = {
  fd : Unix.file_descr;
  inbuf : Buffer.t; (* the current line's bytes before its newline *)
  out : string Queue.t; (* responses not yet fully written *)
  mutable out_off : int; (* bytes of [Queue.peek out] already written *)
  mutable queued : int; (* unwritten bytes in [out] *)
}

(* Append [chunk]'s first [n] bytes to [c]'s input and return the
   lines they complete, in order; only the new bytes are scanned. The
   flag is set when the line in progress passes [max_line]. *)
let feed (c : client) (chunk : Bytes.t) (n : int) : string list * bool =
  let rec newline i = if i >= n || Bytes.get chunk i = '\n' then i else newline (i + 1) in
  let rec go start acc =
    match newline start with
    | i when i < n ->
        if Buffer.length c.inbuf + (i - start) > max_line then (List.rev acc, true)
        else begin
          Buffer.add_subbytes c.inbuf chunk start (i - start);
          let line = Buffer.contents c.inbuf in
          Buffer.reset c.inbuf;
          go (i + 1) (if String.trim line = "" then acc else line :: acc)
        end
    | _ ->
        Buffer.add_subbytes c.inbuf chunk start (n - start);
        (List.rev acc, Buffer.length c.inbuf > max_line)
  in
  go 0 []

let run ~(socket : string) ?watch ?(poll_ms = 500) ?(log = ignore) (t : t) : unit =
  (* A client that disconnects before its response is written must not
     kill the daemon: with SIGPIPE ignored the write fails with EPIPE,
     and only that client is closed. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX socket);
  Unix.listen srv 16;
  Unix.set_nonblock srv;
  log (Printf.sprintf "ivy serve: listening on %s" socket);
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 8 in
  let stop = ref false in
  let watch_last = ref "" in
  let close_client c =
    Hashtbl.remove clients c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  (* Write what the socket takes now; the rest waits for writability. *)
  let rec flush c =
    match Queue.peek_opt c.out with
    | None -> ()
    | Some s -> (
        let len = String.length s - c.out_off in
        match Unix.write_substring c.fd s c.out_off len with
        | n when n = len ->
            ignore (Queue.pop c.out);
            c.out_off <- 0;
            c.queued <- c.queued - n;
            flush c
        | n ->
            c.out_off <- c.out_off + n;
            c.queued <- c.queued - n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | exception Unix.Unix_error _ -> close_client c)
  in
  let send c resp =
    if c.queued > max_queued then close_client c
    else begin
      Queue.add (resp ^ "\n") c.out;
      c.queued <- c.queued + String.length resp + 1;
      flush c
    end
  in
  let chunk = Bytes.create 65536 in
  let read c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> close_client c
    | n ->
        let lines, over = feed c chunk n in
        List.iter
          (fun line ->
            (* A dropped client's remaining lines, and any line after a
               shutdown, go unanswered. *)
            if Hashtbl.mem clients c.fd && not !stop then begin
              let resp, sd = handle_line t line in
              if sd then stop := true;
              send c resp
            end)
          lines;
        if over && Hashtbl.mem clients c.fd then begin
          send c
            (render_error J.Null e_invalid
               (Printf.sprintf "request line longer than %d bytes" max_line));
          close_client c
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_client c
  in
  (* The directory is polled once per [poll_ms], not on every wakeup: a
     request does not re-read it. The first poll is due at once, so a
     pre-populated directory is analyzed at startup, not on first edit. *)
  let next_poll = ref 0.0 in
  let poll_if_due () =
    match watch with
    | Some dir when (not !stop) && Unix.gettimeofday () >= !next_poll ->
        watch_poll t ~log dir watch_last;
        next_poll := Unix.gettimeofday () +. (float_of_int poll_ms /. 1000.0)
    | _ -> ()
  in
  poll_if_due ();
  while not !stop do
    let readers = srv :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [] in
    let writers =
      Hashtbl.fold (fun fd c acc -> if Queue.is_empty c.out then acc else fd :: acc) clients []
    in
    let timeout =
      if watch = None then -1.0 else Float.max 0.0 (!next_poll -. Unix.gettimeofday ())
    in
    let readable, writable, _ =
      try Unix.select readers writers [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter (fun fd -> Option.iter flush (Hashtbl.find_opt clients fd)) writable;
    List.iter
      (fun fd ->
        if fd == srv then begin
          match Unix.accept srv with
          | c, _ ->
              Unix.set_nonblock c;
              Hashtbl.replace clients c
                {
                  fd = c;
                  inbuf = Buffer.create 256;
                  out = Queue.create ();
                  out_off = 0;
                  queued = 0;
                }
          | exception Unix.Unix_error _ -> ()
        end
        else Option.iter read (Hashtbl.find_opt clients fd))
      readable;
    poll_if_due ()
  done;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) clients;
  (try Unix.close srv with Unix.Unix_error _ -> ());
  try Unix.unlink socket with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Client side (ivy rpc)                                              *)
(* ------------------------------------------------------------------ *)

let request ~(socket : string) (line : string) : string =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let payload = Bytes.of_string (line ^ "\n") in
      let rec write_all off =
        if off < Bytes.length payload then
          write_all (off + Unix.write fd payload off (Bytes.length payload - off))
      in
      write_all 0;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec read_line () =
        if String.contains (Buffer.contents buf) '\n' then ()
        else
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              read_line ()
      in
      read_line ();
      match String.index_opt (Buffer.contents buf) '\n' with
      | Some i -> String.sub (Buffer.contents buf) 0 i
      | None -> Buffer.contents buf)
