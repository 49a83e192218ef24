(** Deterministic fork/join parallelism over OCaml 5 domains.

    One small primitive, [map], underpins every parallel path in the
    tool (fuzz campaign sharding, multi-file [ivy check], and the
    parses of an [ivy serve] batch); one program's analyses never use
    it. Items are claimed from a shared counter by a fixed-size pool of
    worker domains, and results are merged {e in index order}, so the
    output of [map ~jobs:n f xs] is exactly [List.map f xs] no matter
    how the scheduler interleaves workers.

    Workers must not share mutable state that is not their own: [f] is
    given one item and must build anything it memoizes (e.g. an
    {!Engine.Context}) itself. Aggregation belongs in the caller, after
    the merge. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the CLI's [--jobs] default. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs], computed by up to [jobs]
    domains (the calling domain participates, so [jobs] is the total
    worker count, not the number of spawns).

    - [jobs <= 1] (or a list shorter than 2) bypasses the pool entirely
      and runs on the calling domain — the serial path pays no domain
      setup, no copying, nothing.
    - Results come back in list order regardless of completion order.
    - If any application raises, the exception of the {e lowest-indexed}
      failing item is re-raised (with its backtrace) after all workers
      have drained — deterministic even when several items fail. *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** Indexed variant, same contract. *)
