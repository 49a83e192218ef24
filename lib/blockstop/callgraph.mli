(** Whole-program call graph with function-pointer resolution, plus
    what is known about a GFP-flags argument at each call site (for
    the [__blocking_if_gfp_wait] allocators). *)

module SS : Set.S with type elt = string and type t = Set.Make(String).t

type gfp_info =
  | No_gfp  (** callee has no gfp-dependent behaviour *)
  | Gfp_const_wait  (** constant argument with __GFP_WAIT set *)
  | Gfp_const_nowait  (** constant argument without it *)
  | Gfp_unknown  (** non-constant: conservatively may wait *)

type via = Direct | Via_fptr

type edge = {
  caller : string;
  callee : string;
  via : via;
  loc : Kc.Loc.t;
  gfp : gfp_info;
}

type t = {
  prog : Kc.Ir.program;
  pointsto : Pointsto.t;
  edges : edge list;
  callees_of : (string, edge list) Hashtbl.t;
}

(** Build the graph. [pointsto] supplies prebuilt points-to facts
    (e.g. from the engine's cache) — when given, [mode] is ignored in
    favour of the prebuilt result's own mode. *)
val build : ?mode:Pointsto.mode -> ?pointsto:Pointsto.t -> Kc.Ir.program -> t
val callees : t -> string -> edge list
val n_edges : t -> int

(** Names reachable from [from] through the graph. *)
val reachable : t -> from:string -> SS.t
