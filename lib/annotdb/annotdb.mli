(** The collaborative annotation database (paper §3.2): a mergeable,
    diffable store of facts about a code base, populated both from
    hand-written annotations and from what the analyses infer.

    Facts bind a subject (function, struct field, global) to a kind of
    information; manual facts take precedence over tool-inferred
    duplicates on [add] and [merge]. *)

type subject =
  | Func of string
  | Field of string * string  (** struct tag, field name *)
  | Global of string

type provenance = Manual | Inferred of string  (** tool name *)

type fact = {
  subject : subject;
  kind : string;  (** "blocking", "count", "returns_err", "stack_bytes", ... *)
  payload : string;  (** kind-specific *)
  provenance : provenance;
}

type t = { mutable facts : fact list }

val create : unit -> t

(** Add a fact; a manual fact replaces an inferred duplicate. *)
val add : t -> fact -> unit

val size : t -> int
val query : t -> ?kind:string -> subject -> fact list
val by_kind : t -> string -> fact list

(** Merge [src] into [into] (manual wins over inferred). *)
val merge : into:t -> t -> unit

val subject_to_string : subject -> string
val provenance_to_string : provenance -> string
val subject_of_string : string -> subject option

(** One tab-separated fact per line, sorted (so databases diff well). *)
val to_string : t -> string

val of_string : string -> t
val save : t -> string -> unit
val load : string -> t

(** Facts from the source's own annotations. *)
val add_source_annotations : t -> Kc.Ir.program -> unit

(** Facts inferred by BlockStop's blocking propagation. *)
val add_blockstop_facts : t -> Blockstop.Blocking.t -> unit

(** Per-function stack depths from Stackcheck. *)
val add_stackcheck_facts : t -> Stackcheck.result -> unit

(** Error-code sets from Errcheck. *)
val add_errcheck_facts : t -> Errcheck.report -> unit

(** Deputy's annotation suggestions for unannotated parameters. *)
val add_infer_facts : t -> Kc.Ir.program -> unit

(** Everything we know about the context's program, in one call. The
    call graph and blocking summaries come from the context's caches,
    so a caller already holding a context pays no rebuild. [mode]
    selects the points-to precision used for the blocking facts
    (default type-based, matching BlockStop's reporting default). *)
val populate : ?mode:Blockstop.Pointsto.mode -> Engine.Context.t -> t
