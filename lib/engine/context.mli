(** The shared whole-program analysis context (engine).

    One [Context.t] is the single owner of every expensive
    whole-program artifact: the typed program, {!Blockstop.Pointsto.t}
    and {!Blockstop.Callgraph.t} memoized per points-to mode,
    per-function {!Dataflow.Cfg.t} tables, blocking summaries, absint
    summaries, the deputized view, the refsafe ownership summaries and
    the rc-instrumented CCount view, compiled VM code and the
    interrupt-handler facts from {!Blockstop.Atomic}.

    Since the artifact-graph refactor all of those live in one
    {!Graph} per context: every artifact has a key and a content hash
    of its inputs derived from the context's {!Fingerprint.table}, and
    its dependency edges are the artifacts its build fetched, recorded
    by the graph. Everything is built lazily, built at most once per
    key while its inputs are unchanged, and instrumented with
    build/hit/invalidation counters plus monotonic self-time build
    timers. {!update} swaps in a re-parsed program and
    invalidates exactly what the edit reaches — the basis of
    [ivy serve]'s incremental re-checking. *)

type t

val create : ?jobs:int -> Kc.Ir.program -> t
(** [jobs] is ignored: a context analyses its program on the calling
    domain. The argument stays only because the benchmark's probes
    ([perfbench/layers.ml], [perfbench/work.ml]) pass it. The context
    must never be shared across domains — its graph is single-domain;
    a parallel driver creates one context per worker and aggregates
    observability with {!merge_counters}. *)

val program : t -> Kc.Ir.program

val graph : t -> Graph.t
(** The context's artifact graph: {!Analysis.run} registers each
    report in it. Other consumers go through the getters below. *)

val program_fingerprint : t -> string
(** Content hash of the whole program (header + every function): the
    input hash of every whole-program artifact. *)

(** The artifact keys, for consumers that register artifacts of their
    own ({!Analysis}) or target the invalidate RPC. *)
module Key : sig
  val pointsto : Blockstop.Pointsto.mode -> Graph.key
  val callgraph : Blockstop.Pointsto.mode -> Graph.key
  val blocking : Blockstop.Pointsto.mode -> Graph.key
  val cfg : string -> Graph.key
  val summaries : Graph.key

  val summary : string -> Graph.key
  (** [absint-summary(f)]: one function's return summary. *)

  val discharge : string -> Graph.key
  (** [absint-discharge(f)]: one deputized function's discharge
      verdict. *)

  val instrumented : Graph.key
  (** [deputy-instrumented]: the base program instrumented and
      Facts-optimized, once per program version. *)

  val deputized : Graph.key
  val vm_compiled : Graph.key
  val irq_handlers : Graph.key
  val refsafe_summaries : Graph.key

  val refsafe_summary : string -> Graph.key
  (** [refsafe-summary(f)]: one function's ownership summary. *)

  val refsafe_findings : string -> Graph.key
  (** [refsafe-findings(f)]: one function's ownership findings. *)

  val ccount_discharged : Graph.key
  val check : string -> Graph.key
end

(** Points-to facts for [mode] (default {!Blockstop.Pointsto.Type_based}),
    built on first request and shared while the program is unchanged. *)
val pointsto : ?mode:Blockstop.Pointsto.mode -> t -> Blockstop.Pointsto.t

(** Call graph for [mode]; reuses the cached points-to for that mode. *)
val callgraph : ?mode:Blockstop.Pointsto.mode -> t -> Blockstop.Callgraph.t

(** Unguarded blocking propagation over the cached call graph. *)
val blocking : ?mode:Blockstop.Pointsto.mode -> t -> Blockstop.Blocking.t

(** Control-flow graph of a defined function ([None] for externs),
    cached per function name and keyed by that function's content
    hash. *)
val cfg : t -> string -> Dataflow.Cfg.t option

(** {!Absint.Transfer.no_ifaces}, the product domain the analyses run:
    a constant, not an artifact. It stays only because the benchmark's
    layer probe ([perfbench/layers.ml]) times it as [absint.relsum_ms]. *)
val relsum_ifaces : t -> Absint.Transfer.ifaces

(** Interprocedural interval summaries ({!Absint.Summary}) over the
    base program, sharing the memoized CFGs (cached; reads every
    per-function CFG artifact and [Key.instrumented]). Only the summaries the deputized view's
    discharge reads are present: those of functions reachable through
    direct calls from one that still holds a check after Deputy and
    Facts ({!Absint.Discharge.residual_roots} of [Key.instrumented]).
    Keyed on the program digest, it only assembles: each non-recursive
    function's summary is its own [Key.summary] node, keyed on the
    header digest, the function's digest and its direct callees'
    summary values, and solved over exactly those
    ({!Absint.Summary.inputs}). An edit that leaves a summary's value
    unchanged leaves its callers' nodes warm (early cutoff). *)
val absint_summaries : t -> Absint.Transfer.summaries

(** The base program instrumented by Deputy and Facts-optimized
    ([Key.instrumented]), with Deputy's report: a shallow copy, built
    once per program version. Its residual checks root
    {!absint_summaries}, and {!deputized} discharges a copy of it. *)
val instrumented : t -> Kc.Ir.program * Deputy.Dreport.report

(** The deputized view of the program: a shallow copy of
    [Key.instrumented] that has been absint-discharged. The context's
    base program is untouched. Keyed on the program digest, it only
    assembles: each function that still holds a check has its own
    [Key.discharge] node, keyed on the header digest, the digest of its
    {e instrumented} body (so a callee annotation edit re-keys it) and
    its direct callees' summary values. A node stores
    the proved checks' ordinals, never IR, and they are re-applied to
    the freshly instrumented body. *)
type deputized = {
  dprog : Kc.Ir.program;
  dreport : Deputy.Dreport.report;  (** instrument + Facts-optimize counters *)
  dstats : Absint.Discharge.stats;  (** absint second-stage discharge *)
}

val deputized : t -> deputized

(** The CCount view of the program: a shallow copy rc-instrumented and
    thinned by the {!Refsafe.Discharge} ownership stage. *)
type ccounted = {
  cprog : Kc.Ir.program;
  cinstr : Ccount.Rc_instrument.stats;  (** instrumentation counters *)
  cinfo : Ccount.Typeinfo.t;  (** RTTI to register before booting [cprog] *)
  crstats : Refsafe.Discharge.stats;  (** refsafe discharge counters *)
}

(** Refsafe ownership summaries ({!Refsafe.Summary}). Keyed on the
    program digest, it only assembles: each non-recursive function's
    summary is its own [Key.refsafe_summary] node, keyed on the header
    digest, the function's digest and its direct callees' summary
    values, and solved over exactly those ({!Refsafe.Summary.inputs}).
    An edit that leaves a summary's value unchanged leaves its
    callers' nodes warm (early cutoff). *)
val refsafe_summaries : t -> Refsafe.Summary.summaries

(** The ownership checker's findings ({!Refsafe.Ownership.check}) over
    every defined function, in program order. Not an artifact itself:
    each function's findings are a [Key.refsafe_findings] node, keyed
    like its summary node, and fetch that function's CFG inside their
    build. Called inside another artifact's build (the refsafe
    check's), it records an edge to {!refsafe_summaries} and to every
    findings node. *)
val refsafe_findings : t -> Refsafe.Ownership.finding list

(** The memoized CCount view (cached; reads
    [Key.refsafe_summaries]). *)
val ccount_discharged : t -> ccounted

(** The VM's pre-compiled executable form of the base program
    ({!Vm.Compile}), cached on the context (and globally memoized per
    program by the VM itself). Booting an interpreter on this
    context's program reuses it. *)
val vm_compiled : t -> Vm.Compile.t

(** Functions registered as interrupt handlers (cached). *)
val irq_handlers : t -> Blockstop.Atomic.SS.t

(** {2 Incremental update} *)

type update = {
  u_changed : string list;
  u_added : string list;
  u_removed : string list;
  u_header_changed : bool;
  u_unchanged : bool;  (** nothing differed; the old program was kept *)
  u_dropped : int;  (** artifacts push-invalidated by the update *)
}

val update : t -> Kc.Ir.program -> update
(** Swap in a newly parsed version of the program. If every digest
    matches, the old program object is kept (fully warm). Otherwise
    the per-function artifacts whose content hash changed are
    push-invalidated along the recorded edges, and whole-program
    artifacts re-key themselves on next access. *)

val invalidate : t -> Graph.key -> int
(** Drop one artifact and its transitive dependents; returns the count. *)

val invalidate_all : t -> int

(** {2 Observability for the bench and [--stats]} *)

type stat = Graph.stat = {
  artifact : string;  (** e.g. ["callgraph(type-based)"] *)
  builds : int;  (** times actually constructed (1 per key if shared) *)
  hits : int;  (** times served from the cache *)
  invalidations : int;  (** stale rebuilds + push-invalidation drops *)
  seconds : float;
      (** monotonic self time spent constructing: nested builds are
          charged to their own artifact, not to the one that fetched
          them *)
}

(** Stats sorted by artifact name. *)
val stats : t -> stat list

(** Fold the per-worker stat lists of a parallel run (one context per
    worker) into one list: per-artifact sums, sorted by artifact name —
    deterministic regardless of worker scheduling. *)
val merge_counters : stat list list -> stat list
