(** The [ivy serve] incremental analysis daemon: warm
    {!Engine.Context}s per program in an LRU, newline-delimited
    JSON-RPC over a Unix socket ([check] / [stats] / [invalidate] /
    [shutdown]), per-request stats deltas so clients can assert
    incrementality. See DESIGN.md §14 for the wire format. *)

type t

val create : ?capacity:int -> ?jobs:int -> unit -> t
(** [capacity] (default 8) bounds resident warm programs. [jobs] is
    ignored: every request is parsed and analysed on the calling
    domain. *)

val src_digest : (string * string) list -> string
(** Digest of raw [(path, source)] pairs: a resubmit with the same
    digest skips parsing entirely. *)

val handle_line : t -> string -> string * bool
(** One request line in, one response line out (no trailing newline);
    [true] means the request asked for shutdown. Exposed for tests —
    the socket loop is {!run}. *)

val run : socket:string -> ?watch:string -> ?poll_ms:int -> ?log:(string -> unit) -> t -> unit
(** Bind [socket], serve until a [shutdown] request. With [watch], the
    directory's [.kc] files are re-checked (as program
    ["watch:<dir>"]) whenever their contents change, polled once every
    [poll_ms] (default 500) milliseconds whatever the request traffic;
    summaries go to [log].
    Each complete request line is answered as it is read. A client
    that does not read its responses is dropped once too many bytes
    wait for it, and a request line over the line cap gets an error
    response and closes its client (DESIGN.md §14.3). *)

val request : socket:string -> string -> string
(** Client side: send one request line, return the response line. *)
