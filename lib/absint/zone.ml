(* Zone domain: difference-bound constraints [x - y <= c] between
   *stable* program variables (Deputy.Facts.stable: locals and formals
   whose address is never taken), plus a distinguished zero variable so
   unary bounds [x <= c] / [x >= c] live in the same matrix.

   Constraints bound the *raw post-norm int64 representation* of each
   variable — exactly what the interval component bounds and what
   Deputy checks compare — so the two halves of the reduced product
   exchange information without sign/width caveats.  The transfer layer
   only ever adds a relational constraint when the syntactic expression
   decomposes to [var + const] with an interval certificate that no
   intermediate result wraps (see Transfer.linear_of_exp); everything
   else havocs, preserving the PR 3 cast-soundness discipline.

   Reduction with intervals happens in two directions:
   - [close_seeded] injects each variable's interval bounds as unary
     constraints before closure, so interval facts participate in
     relational derivations (used at join points, kill points and
     entailment queries);
   - [bounds_of] reads derived unary bounds back out of a (closed)
     zone so the interval component can be tightened.

   Program variable ids are positive (Typecheck starts at 1), so the
   zero variable is safely encoded as -1. *)

type t = Dbm.t

let zero = -1
let top : t = Dbm.top
let is_top = Dbm.is_top
let equal = Dbm.equal
let join = Dbm.join
let widen = Dbm.widen
let narrow = Dbm.narrow
let forget = Dbm.forget
let shift = Dbm.shift
let add_le = Dbm.add
let cardinal = Dbm.cardinal

(* Program variables mentioned by the zone (zero var excluded). *)
let vars (t : t) : int list = List.filter (fun v -> v <> zero) (Dbm.vars t)

(* Derived unary bounds of [v]: (lo, hi) as far as the zone knows. *)
let bounds_of (v : int) (t : t) : int64 option * int64 option =
  let hi = Dbm.find_opt v zero t in
  let lo =
    match Dbm.find_opt zero v t with
    | Some c when c <> Int64.min_int -> Some (Int64.neg c)
    | _ -> None
  in
  (lo, hi)

(* [bounds_of] of every variable the zone bounds from either side, in
   increasing order: one walk of the zero variable's row and column. *)
let fold_bounds f (t : t) acc =
  Dbm.fold_through zero
    (fun v hi neg_lo acc ->
      let lo =
        match neg_lo with Some c when c <> Int64.min_int -> Some (Int64.neg c) | _ -> None
      in
      f v lo hi acc)
    t acc

type seeds = int -> Interval.t

let no_seeds : seeds = fun _ -> Interval.top

exception Empty_seed

(* The interval bounds of [vs] as unary constraints, in the order they
   are added (per variable: upper, then lower bound), fed to [f].
   [Empty_seed] when a seed is empty (the state is infeasible). *)
let seed_adds (seeds : seeds) (vs : int list) f =
  List.iter
    (fun v ->
      match seeds v with
      | Interval.Bot -> raise Empty_seed
      | Interval.Iv (lo, hi) -> (
          (match hi with Interval.Fin h -> f v zero h | _ -> ());
          match lo with
          | Interval.Fin l when l <> Int64.min_int -> f zero v (Int64.neg l)
          | _ -> ()))
    vs

(* Close the zone with the interval bounds of the universe [vs] (sorted,
   duplicate-free, zero excluded, a superset of [vars t]) seeded in,
   materializing derived constraints (both relational and unary) into
   the stored matrix.  Used on join inputs and before killing a
   variable, never on widening results.  At a join [vs] covers both
   sides' zone variables, so a fact one side carries relationally and
   the other carries as an interval (e.g. a clamped [todo = 512]
   meeting the other branch's [todo <= n]) still meets in the middle.
   [None] = the combined zone+interval state is infeasible. *)
let close_seeded_in (vs : int list) (seeds : seeds) (t : t) : t option =
  try Dbm.close_with (seed_adds seeds vs) (Array.of_list (zero :: vs)) t with Empty_seed -> None

(* Program variables of either zone, sorted. *)
let union_vars (a : t) (b : t) : int list = List.filter (fun v -> v <> zero) (Dbm.union_vars a b)

(* [close_seeded_in] over the zone's own variables, e.g. before killing
   one of them so derived consequences survive. *)
let close_seeded (seeds : seeds) (t : t) : t option =
  if is_top t then Some t else close_seeded_in (vars t) seeds t

(* Entailment query: does the zone, reduced with interval seeds, prove
   [x - y <= c]?  The closure universe is extended with the query
   endpoints so purely seeded paths (x <= hx, ly <= y) participate.
   An infeasible state entails everything. *)
let entails_le (seeds : seeds) (x : int) (y : int) (c : int64) (t : t) : bool =
  Dbm.entails_le x y c t
  ||
  let vs = List.sort_uniq Int.compare (x :: y :: vars t) in
  match Dbm.close_with (seed_adds seeds vs) (Array.of_list (zero :: vs)) t with
  | None | (exception Empty_seed) -> true
  | Some closed -> Dbm.entails_le x y c closed

let to_string (t : t) : string = Dbm.to_string t
