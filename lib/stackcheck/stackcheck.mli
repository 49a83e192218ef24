(** Stack-overflow prevention (paper §3.1, second proposed analysis):
    per-function frame sizes plus the sound call graph give the
    maximum stack depth of every call chain; chains must fit the 4 or
    8 kB budget. Recursive functions have unbounded static depth and
    need runtime checks, as the paper prescribes. *)

module SM : Map.S with type key = string and type 'a t = 'a Map.Make(String).t
module SS : Set.S with type elt = string and type t = Set.Make(String).t

(** Fixed per-call bookkeeping bytes (return address etc). *)
val frame_overhead : int

(** Frame bytes of one function: memory-resident locals (address-taken
    or aggregate) + overhead + any [__frame_hint]. *)
val frame_size : Kc.Ir.program -> Kc.Ir.fundec -> int

type result = {
  frames : int SM.t;  (** per-function frame bytes *)
  depths : int SM.t;  (** max stack bytes from each function; -1 = unbounded *)
  recursive : SS.t;  (** functions on a call-graph cycle *)
  worst_chain : string list;  (** the deepest bounded chain *)
  worst_bytes : int;
}

(** Analyze over [cg], whose points-to precision resolves
    function-pointer calls (an engine context's field-based
    [Context.callgraph], as [ivy check] uses). *)
val analyze : cg:Blockstop.Callgraph.t -> Kc.Ir.program -> result

(** Does every chain from [entry] fit in [budget] bytes? *)
val fits : result -> entry:string -> budget:int -> bool

(** Recursive entries whose depth needs a runtime check. *)
val needs_runtime_check : result -> string list

val pp : Format.formatter -> result -> unit
