(** The artifact graph: the engine's incremental-computation core.

    Every expensive artifact is a node keyed by (name x param) that
    records the content hash of its direct inputs at build time, the
    keys its build read through {!get} with their build stamps, and
    its cached value. The edges are recorded while a build runs, never
    declared: every {!get} made inside another node's build, hit or
    build, becomes an edge of that node. {!get} serves the cache while
    the hash still matches and no recorded read has been rebuilt
    since; {!invalidate} drops a key plus everything downstream along
    the recorded edges. Build / hit / invalidation counters and build
    self seconds are owned by the graph and aggregated per artifact
    name.

    Soundness invariant: every node whose build reads other nodes keys
    its [fp] on a digest that covers theirs (today the program digest,
    for every such node). {!get} therefore checks [fp] before any input
    is re-fetched: an input whose own key moved has moved that digest
    too, and the recorded stamps still catch an input rebuilt under an
    unchanged digest, e.g. after an {!invalidate}.

    Single-domain, like the {!Context} that owns it; parallel drivers
    keep one graph per worker and aggregate with {!merge}. *)

type t

type key = { name : string; param : string }

val key : ?param:string -> string -> key

(** Typed storage for one artifact family. Allocate one slot per
    family statically (e.g. one for call graphs, one for CFGs); the
    slot is how {!get} recovers the value's type from the store. *)
type 'a slot

val slot : unit -> 'a slot

val create : unit -> t

(** [get g slot key ~fp build] returns the cached value for [key] if
    its recorded input hash equals [fp] and every key its build read
    still has the stamp it had when read (a cache hit); otherwise runs
    [build] and stores the result with the reads [build] made (counted
    as a build, plus an invalidation if a stale node was replaced).
    Either way, when called inside another node's build, [key] is
    recorded as a read of that node. *)
val get : t -> 'a slot -> key -> fp:string -> (unit -> 'a) -> 'a

val mem : t -> key -> bool

(** Drop [key] and all transitive dependents along the recorded
    edges; returns how many nodes were dropped. Each drop counts as an
    invalidation for its artifact name. *)
val invalidate : t -> key -> int

(** Drop every node (the whole program changed shape). *)
val invalidate_all : t -> int

(** Observability: per-artifact-name sums. [builds]/[hits]/
    [invalidations] are deterministic; [seconds] is monotonic self
    time — a build's own time, minus that of the builds it triggered
    by fetching other artifacts, which those artifacts report. *)
type stat = {
  artifact : string;
  builds : int;
  hits : int;
  invalidations : int;
  seconds : float;
}

val stats : t -> stat list
(** Sorted by artifact name. *)

val merge : stat list list -> stat list
(** Fold per-worker stat lists into per-artifact sums, sorted by
    artifact name — deterministic regardless of worker scheduling. *)

val delta : before:stat list -> stat list -> stat list
(** What one request paid: [after - before], zero rows dropped. *)

val total_builds : stat list -> int
val total_hits : stat list -> int
val total_invalidations : stat list -> int

(** Bounded recency store keyed by program id: `ivy serve` keeps warm
    contexts in one of these, evicting the least recently used program
    at capacity. *)
module Lru : sig
  type 'a t

  val create : capacity:int -> 'a t
  val size : 'a t -> int
  val capacity : 'a t -> int
  val evictions : 'a t -> int
  val mem : 'a t -> string -> bool

  val find : 'a t -> string -> 'a option
  (** Bumps recency on hit. *)

  val add : 'a t -> string -> 'a -> (string * 'a) option
  (** Insert or refresh; returns the evicted binding, if any. *)

  val remove : 'a t -> string -> unit
  val keys : 'a t -> string list
  val fold : (string -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
end
