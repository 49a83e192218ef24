(** Zone domain over stable program variables: difference-bound
    constraints [x - y <= c] (see {!Dbm}) plus a distinguished zero
    variable for unary bounds, reduced with the interval component by
    seeding closures with interval bounds and reading derived unary
    bounds back out. Constraints bound raw post-norm int64
    representations, matching both {!Interval} and Deputy's check
    semantics. *)

type t = Dbm.t

val zero : int
(** The distinguished zero variable (-1; program vids are positive). *)

val top : t
val is_top : t -> bool
val equal : t -> t -> bool
val join : t -> t -> t
val widen : t -> t -> t
val narrow : t -> t -> t
val forget : int -> t -> t
val shift : int -> int64 -> t -> t
val add_le : int -> int -> int64 -> t -> t option
val cardinal : t -> int

val vars : t -> int list
(** Program variables mentioned by the zone (zero excluded). *)

val bounds_of : int -> t -> int64 option * int64 option
(** Derived (lo, hi) unary bounds of a variable. *)

val fold_bounds : (int -> int64 option -> int64 option -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_bounds f t acc]: [f v lo hi] with [(lo, hi) = bounds_of v t]
    for each variable the zone bounds from below or above, in
    increasing order. *)

type seeds = int -> Interval.t
(** Interval bounds per variable id, used to reduce the product. *)

val no_seeds : seeds

val close_seeded_in : int list -> seeds -> t -> t option
(** [close_seeded_in vs seeds t]: seed the interval bounds of [vs]
    (sorted, duplicate-free, zero excluded, and including every
    variable of [t]) as unary constraints, then close over [vs] and
    the zero variable.  [None] when the combined state is infeasible.
    Apply to join inputs and before killing a variable; never to a
    widening result (termination). *)

val union_vars : t -> t -> int list
(** Program variables mentioned by either zone, sorted: the shared
    closure universe of a join's two sides. *)

val close_seeded : seeds -> t -> t option
(** {!close_seeded_in} over the zone's own variables. *)

val entails_le : seeds -> int -> int -> int64 -> t -> bool
(** [entails_le seeds x y c t]: does the interval-reduced zone prove
    [x - y <= c]? Infeasible states entail everything. *)

val to_string : t -> string
