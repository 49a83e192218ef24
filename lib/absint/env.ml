(* Abstract environment: the reduced product of
   - a map from stable variable ids to interval×nullness values, and
   - a zone of difference-bound constraints between those variables,
   with an explicit Unreachable bottom so infeasible branches stop
   propagating facts (and their checks discharge trivially).

   An absent binding means "unknown": reads fall back to the variable's
   type range (Transfer.of_ty), so dropping a binding is always sound;
   likewise an absent zone constraint is +oo.

   Reduction discipline (termination-critical):
   - join closes BOTH zone arguments with their own interval seeds, so
     facts one side carries relationally and the other side carries as
     intervals meet in the middle (pointwise-max zone join is only
     precise on closed arguments);
   - widen closes only the NEXT argument — the accumulator passes
     through untouched, preserving the DBM widening's shrinking-keys
     termination argument;
   - a side whose zone+intervals are contradictory is infeasible and
     drops out of the join entirely. *)

module IntMap = Map.Make (Int)

type t = Unreachable | Env of Aval.t IntMap.t * Zone.t

let bottom = Unreachable
let empty = Env (IntMap.empty, Zone.top)

let equal a b =
  match (a, b) with
  | Unreachable, Unreachable -> true
  | Env (m1, z1), Env (m2, z2) -> IntMap.equal Aval.equal m1 m2 && Zone.equal z1 z2
  | _ -> false

(* Interval seeds of an environment side: bound vars contribute their
   interval, unbound vars contribute nothing (sound: top). *)
let seeds_of (m : Aval.t IntMap.t) : Zone.seeds =
 fun vid -> match IntMap.find_opt vid m with Some a -> a.Aval.iv | None -> Interval.top

let merge_common f m1 m2 =
  IntMap.merge (fun _ l r -> match (l, r) with Some x, Some y -> Some (f x y) | _ -> None) m1 m2

let join a b =
  match (a, b) with
  | Unreachable, x | x, Unreachable -> x
  | Env (m1, z1), Env (m2, z2) -> (
      (* Each side closes over the union of both zones' variables: a
         fact one side carries relationally and the other only as an
         interval (the variable may have left its zone through a kill)
         must be materialized on both sides to survive the pointwise
         key-intersecting zone join. *)
      let vs = Zone.union_vars z1 z2 in
      match (Zone.close_seeded_in vs (seeds_of m1) z1, Zone.close_seeded_in vs (seeds_of m2) z2) with
      | None, None -> Unreachable
      | None, Some z2 -> Env (m2, z2)
      | Some z1, None -> Env (m1, z1)
      | Some z1, Some z2 -> Env (merge_common Aval.join m1 m2, Zone.join z1 z2))

let widen a b =
  match (a, b) with
  | Unreachable, x | x, Unreachable -> x
  | Env (m1, z1), Env (m2, z2) -> (
      match Zone.close_seeded_in (Zone.union_vars z1 z2) (seeds_of m2) z2 with
      | None -> a (* next side infeasible: nothing to widen against *)
      | Some z2 -> Env (merge_common Aval.widen m1 m2, Zone.widen z1 z2))

let narrow a b =
  match (a, b) with
  | Unreachable, _ | _, Unreachable -> Unreachable
  | Env (m1, z1), Env (m2, z2) ->
      Env (merge_common Aval.narrow m1 m2, Zone.narrow z1 z2)

let find_opt vid = function Unreachable -> None | Env (m, _) -> IntMap.find_opt vid m

let set vid v = function
  | Unreachable -> Unreachable
  | Env (m, z) -> Env (IntMap.add vid v m, z)

let forget vid = function
  | Unreachable -> Unreachable
  | Env (m, z) -> Env (IntMap.remove vid m, Zone.forget vid z)

let is_unreachable = function Unreachable -> true | Env _ -> false

(* --- zone access for the transfer layer ------------------------- *)

let zone = function Unreachable -> None | Env (_, z) -> Some z
let seeds = function Unreachable -> Zone.no_seeds | Env (m, _) -> seeds_of m

(* Apply a partial zone transformer; a [None] result means the
   constraint system became infeasible. *)
let map_zone f = function
  | Unreachable -> Unreachable
  | Env (m, z) -> ( match f z with Some z' -> Env (m, z') | None -> Unreachable)

(* Close the zone with interval seeds and materialize the result —
   used before killing a variable so consequences (e.g. a lower bound
   on [n] proved via [todo = n; todo > 512]) survive the kill. *)
let close = function
  | Unreachable -> Unreachable
  | Env (m, z) -> (
      match Zone.close_seeded (seeds_of m) z with
      | Some z' -> Env (m, z')
      | None -> Unreachable)

(* Read derived unary zone bounds back into the interval component
   (the second reduction direction). Only bound variables are
   tightened: inventing bindings for unbound vars would make the env
   compare unequal without adding usable information. A binding whose
   variable has no unary zone bound has nothing to meet, so the walk is
   over the zone's bounded variables. Only bindings that change are
   rebuilt. *)
let tighten_from_zone = function
  | Unreachable -> Unreachable
  | Env (m, z) ->
      let infeasible = ref false in
      let m' =
        Zone.fold_bounds
          (fun vid lo hi acc ->
            match IntMap.find_opt vid m with
            | None -> acc
            | Some (a : Aval.t) -> (
                match (lo, hi) with
                | None, None -> acc
                | lo, hi ->
                    let cut = a.Aval.iv in
                    let cut =
                      match lo with
                      | Some l -> Interval.meet cut (Interval.Iv (Interval.Fin l, Interval.Pinf))
                      | None -> cut
                    in
                    let cut =
                      match hi with
                      | Some h -> Interval.meet cut (Interval.Iv (Interval.Ninf, Interval.Fin h))
                      | None -> cut
                    in
                    let a' = Aval.reduce { a with Aval.iv = cut } in
                    if Aval.is_bot a' then infeasible := true;
                    if Aval.equal a' a then acc else IntMap.add vid a' acc))
          z m
      in
      if !infeasible then Unreachable else Env (m', z)
