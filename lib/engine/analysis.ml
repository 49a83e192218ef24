(* The common interface every analysis implements to run under the
   engine: a name (for [--only] selection), a one-line doc string, and
   a run function from the shared context to unified diagnostics.
   Implementations live next to their analyses (Ivy.Checks wraps the
   seven checkers); the engine itself only defines the contract.

   [run] memoizes the sorted diagnostic list as a graph artifact
   ["check(<name>)"] keyed by the whole-program content hash. Its
   edges are the artifacts the analysis fetches while it runs, which
   the graph records — so a warm re-check of an unchanged program is
   pure cache hits, and push-invalidating an upstream artifact (e.g. a
   function's CFG) drops exactly the dependent reports. *)

module type S = sig
  val name : string

  (** One line, shown as the help of the analysis' [ivy NAME] subcommand. *)
  val doc : string

  (** Run over the shared context; artifacts must be obtained through
      {!Context} getters so they are built at most once per run and
      recorded as edges of the cached report. *)
  val run : Context.t -> Diag.t list
end

type t = (module S)

let name (module A : S) = A.name
let doc (module A : S) = A.doc

(* All reports share one slot: the family is "diagnostic list", the
   analysis name distinguishes the keys. *)
let diags_slot : Diag.t list Graph.slot = Graph.slot ()

let run (module A : S) ctxt =
  Graph.get (Context.graph ctxt) diags_slot (Context.Key.check A.name)
    ~fp:(Context.program_fingerprint ctxt)
    (fun () -> Diag.sort (A.run ctxt))
