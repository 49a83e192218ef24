(** Domain-safe named counters.

    Each domain gets its own [(string, int ref)] table via DLS; tables
    register under a mutex on first use and persist past the domain's
    death, so [table] can merge exact per-domain counts after a
    parallel phase. Only the owning domain mutates its table — the
    unsynchronized-Hashtbl corruption mode is structurally impossible.

    [table]/[reset] walk all registered tables and expect worker
    domains to be quiescent (any point after [Par.map] returns). *)

type t

val create : unit -> t

val add : t -> string -> int -> unit
val bump : t -> string -> unit

val table : t -> (string * int) list
(** Counts summed across all domains, zero rows dropped, sorted by
    count descending then name. *)

val reset : t -> unit

val render : title:string -> t -> string
(** [table] formatted for display under [title]; [""] when empty. *)
