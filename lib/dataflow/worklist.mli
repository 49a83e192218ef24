(** Generic forward worklist dataflow solvers over {!Cfg},
    parameterized by a join-semilattice. *)

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Make (L : LATTICE) : sig
  type result = { before : L.t array; after : L.t array }

  (** [solve cfg ~init ~transfer]: [transfer node state] maps a node's
      entry state to its exit state; [init] enters at [cfg.entry].
      Returns the fixpoint per node. *)
  val solve : Cfg.t -> init:L.t -> transfer:(Cfg.node -> L.t -> L.t) -> result
end

(** A lattice of possibly infinite height, equipped with widening (to
    force the ascending phase to stabilize) and narrowing (to recover
    precision in bounded descending sweeps). *)
module type WIDEN_LATTICE = sig
  include LATTICE

  val widen : t -> t -> t
  (** [widen old next]: an upper bound of both arguments such that any
      chain [x, widen x y1, widen (widen x y1) y2, ...] is finite. *)

  val narrow : t -> t -> t
  (** [narrow old next] with [next <= old]: any value between [next]
      and [old]. *)
end

(** Widening-aware forward solver: widens at the nodes flagged in
    [widen_at] (back-edge targets cover every cycle), refines the state
    per outgoing edge via [edge node succ_idx out] (branch conditions),
    then runs [narrow_passes] descending sweeps in reverse postorder.
    [widen_delay] (default 0) makes each widening point join instead of
    widen for its first visits, so transient states settling elsewhere
    in the CFG don't get widened into unrecoverable infinities;
    termination is preserved because the delay budget is finite.
    [iterations] counts node evaluations across both phases. *)
module Make_widening (L : WIDEN_LATTICE) : sig
  type result = { before : L.t array; after : L.t array; iterations : int }

  val solve :
    ?narrow_passes:int ->
    ?widen_delay:int ->
    Cfg.t ->
    widen_at:bool array ->
    init:L.t ->
    transfer:(Cfg.node -> L.t -> L.t) ->
    edge:(Cfg.node -> int -> L.t -> L.t) ->
    result
end
