(* Generic forward worklist dataflow solvers over {!Cfg}.

   [Make] is instantiated with a join-semilattice of finite height and
   returns the fixpoint state at the entry and exit of each node. *)

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Make (L : LATTICE) = struct
  type result = { before : L.t array; after : L.t array }

  (* [transfer node state] maps the state at a node's entry to the
     state at its exit. *)
  let solve (cfg : Cfg.t) ~(init : L.t) ~(transfer : Cfg.node -> L.t -> L.t) : result =
    let n = Cfg.n_nodes cfg in
    let before = Array.make n L.bottom and after = Array.make n L.bottom in
    let start = cfg.Cfg.entry in
    before.(start) <- init;
    let queue = Queue.create () in
    let on_queue = Array.make n false in
    let push i =
      if not on_queue.(i) then begin
        on_queue.(i) <- true;
        Queue.add i queue
      end
    in
    Array.iter (fun (nd : Cfg.node) -> push nd.Cfg.nid) cfg.Cfg.nodes;
    while not (Queue.is_empty queue) do
      let i = Queue.take queue in
      on_queue.(i) <- false;
      let nd = Cfg.node cfg i in
      let in_state =
        List.fold_left
          (fun acc p -> L.join acc after.(p))
          (if i = start then init else L.bottom)
          nd.Cfg.preds
      in
      before.(i) <- in_state;
      let out_state = transfer nd in_state in
      if not (L.equal out_state after.(i)) then begin
        after.(i) <- out_state;
        List.iter push nd.Cfg.succs
      end
    done;
    { before; after }
end

(* Widening-aware forward solver for infinite-height lattices
   (intervals). Compared to {!Make}:

   - the lattice additionally provides [widen] (an upper-bound
     operator that forces stabilization) and [narrow] (a bounded
     descending refinement);
   - [solve] takes a [widen_at] predicate array (typically the
     back-edge targets of the CFG) selecting the nodes where widening
     replaces plain join. Every CFG cycle contains a back-edge target,
     so widening there guarantees termination;
   - propagation is edge-aware: [edge node idx out] may refine the
     state flowing from [node] to its [idx]-th successor, which is how
     branch conditions sharpen the two arms of a [Tcond];
   - after the ascending phase stabilizes, [narrow_passes] descending
     sweeps in reverse postorder recover precision lost to widening
     (sound for monotone transfer functions: every iterate of a
     descending sequence from a post-fixpoint stays a post-fixpoint);
   - the total number of node evaluations is reported for
     observability ([ivy check --only absint --stats]). *)

module type WIDEN_LATTICE = sig
  include LATTICE

  val widen : t -> t -> t
  (** [widen old next]: upper bound of [old] and [next] that reaches a
      fixed point after finitely many applications. *)

  val narrow : t -> t -> t
  (** [narrow old next] with [next <= old]: a value between [next] and
      [old] (used to undo widening without endangering termination). *)
end

module Make_widening (L : WIDEN_LATTICE) = struct
  type result = { before : L.t array; after : L.t array; iterations : int }

  (* [widen_delay] postpones widening at each widening point for that
     many visits (plain join instead).  Early worklist visits can carry
     transient states — e.g. a bound that ascends once while an earlier
     loop stabilizes — and widening against them destroys limits that
     narrowing cannot recover (the infinity feeds itself back through
     the cycle).  A small delay lets such transients settle.
     Termination is unaffected: the delay is a finite per-node budget,
     after which every visit widens. *)
  let solve ?(narrow_passes = 2) ?(widen_delay = 0) (cfg : Cfg.t) ~(widen_at : bool array)
      ~(init : L.t) ~(transfer : Cfg.node -> L.t -> L.t) ~(edge : Cfg.node -> int -> L.t -> L.t) :
      result =
    let n = Cfg.n_nodes cfg in
    let before = Array.make n L.bottom and after = Array.make n L.bottom in
    let widen_visits = Array.make n 0 in
    let iterations = ref 0 in
    let preds = Array.init n (fun i -> List.sort_uniq Int.compare (Cfg.node cfg i).Cfg.preds) in
    (* Join of all incoming edge-refined states of node [i]. *)
    let input i =
      let acc = if i = cfg.Cfg.entry then init else L.bottom in
      List.fold_left
        (fun acc p ->
          let pn = Cfg.node cfg p in
          fst
            (List.fold_left
               (fun (acc, idx) s ->
                 ((if s = i then L.join acc (edge pn idx after.(p)) else acc), idx + 1))
               (acc, 0) pn.Cfg.succs))
        acc preds.(i)
    in
    let queue = Queue.create () in
    let on_queue = Array.make n false in
    let push i =
      if not on_queue.(i) then begin
        on_queue.(i) <- true;
        Queue.add i queue
      end
    in
    Array.iter (fun (nd : Cfg.node) -> push nd.Cfg.nid) cfg.Cfg.nodes;
    while not (Queue.is_empty queue) do
      let i = Queue.take queue in
      on_queue.(i) <- false;
      incr iterations;
      let in_ = input i in
      let in_ =
        if widen_at.(i) then begin
          let v = widen_visits.(i) in
          widen_visits.(i) <- v + 1;
          if v < widen_delay then L.join before.(i) in_ else L.widen before.(i) in_
        end
        else in_
      in
      before.(i) <- in_;
      let out = transfer (Cfg.node cfg i) in_ in
      if not (L.equal out after.(i)) then begin
        after.(i) <- out;
        List.iter push (Cfg.node cfg i).Cfg.succs
      end
    done;
    (* Descending sweeps: recompute without widening, narrowing at the
       widening points so loop heads recover finite bounds.  [narrow
       old next] is only sound when [next <= old] — guaranteed for
       monotone transfer functions, but a non-monotone transfer (or
       edge refinement) could recompute an input *above* the ascending
       post-fixpoint, and narrowing would then silently exclude
       reachable states.  Detect that with the derived order test
       (x <= y iff join x y = y) and fall back to join, which stays
       sound at the cost of precision (termination is unaffected:
       [narrow_passes] bounds the sweeps). *)
    let rpo = Cfg.reverse_postorder cfg in
    for _ = 1 to narrow_passes do
      List.iter
        (fun i ->
          incr iterations;
          let in_ = input i in
          let in_ =
            if widen_at.(i) then
              if L.equal (L.join in_ before.(i)) before.(i) then L.narrow before.(i) in_
              else L.join before.(i) in_
            else in_
          in
          before.(i) <- in_;
          after.(i) <- transfer (Cfg.node cfg i) in_)
        rpo
    done;
    { before; after; iterations = !iterations }
end
