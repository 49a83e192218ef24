(** Difference-bound matrix over integer variable ids: for each pair
    [(x, y)] of its variables, the tightest known [c] with [x - y <= c],
    or nothing (+oo), so dropping entries is always sound.  Stored flat:
    the sorted variables, and a dense n×n [int64] matrix with a presence
    plane in one [Bytes].  The canonical form (the variables are exactly
    the endpoints of present entries; absent entries hold zero) makes
    {!equal} a byte comparison and {!vars} a read.  Every operation is
    persistent: it copies the matrix once and works on the copy.  A
    value also records whether it is known closed, which lets a later
    {!close_over} skip the Floyd–Warshall run without changing its
    result.
    The relational half of the absint product domain ({!Zone} wraps
    this with program variables and the distinguished zero var). *)

type t

val top : t
(** No constraints. *)

val is_top : t -> bool
val equal : t -> t -> bool
val find_opt : int -> int -> t -> int64 option
val fold : (int -> int -> int64 -> 'a -> 'a) -> t -> 'a -> 'a
(** Row-major over the sorted variables: lexicographic [(x, y)] order. *)

val cardinal : t -> int

val fold_through : int -> (int -> int64 option -> int64 option -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_through z f t acc]: [f v (find_opt v z t) (find_opt z v t)]
    for each variable [v] with an entry to or from [z], in increasing
    order. *)

val vars : t -> int list
(** Every variable id mentioned by some constraint, sorted. *)

val union_vars : t -> t -> int list
(** Every variable id mentioned by either matrix, sorted. *)

val add : int -> int -> int64 -> t -> t option
(** [add x y c t]: record [x - y <= c], propagating one step through
    existing paths (incremental closure — complete when [t] is closed,
    sound otherwise). [None] when the constraint system becomes
    infeasible (negative cycle). *)

val close_over : ?adding:(int * int * int64) list -> int list -> t -> t option
(** [close_over ~adding vs t]: {!add} each [(x, y, c)] of [adding] in
    order, then close over the explicit universe [vs] (which may
    include variables without constraints yet, e.g. query endpoints,
    and must not repeat one). Entries with an endpoint outside [vs]
    pass through unchanged; with a non-empty [adding], every variable
    of [t] and of [adding] must be in [vs] ([Invalid_argument]
    otherwise). The result equals folding {!add} and then closing, and
    is computed in place on a copy of the matrix, laid out over the
    union of [vars t] and [vs]. *)

val close_with : ((int -> int -> int64 -> unit) -> unit) -> int array -> t -> t option
(** [close_with adding u t]: {!close_over} with the constraints as an
    iterator ([adding f] calls [f x y c] on each, in order, and may be
    run more than once) over the universe [u], which must hold every
    variable of [t] and of the constraints.  An exception [adding]
    raises passes through. *)

val join : t -> t -> t
(** Pointwise max over common keys. Precise when both sides are
    closed; sound regardless. *)

val widen : t -> t -> t
(** [widen old next] keeps entries of [old] that [next] does not
    weaken and never adopts anything from [next]: widening chains are
    finite because key sets shrink monotonically and surviving values
    never change. Never close a widening result in place. *)

val narrow : t -> t -> t
(** [narrow old next]: all of [old] plus [next]'s entries on keys
    [old] lacks. Sound when [next <= old] (the solver guards this). *)

val forget : int -> t -> t
(** Drop every constraint mentioning the variable. *)

val shift : int -> int64 -> t -> t
(** [shift v k t]: exact translation for [v := v + k]; only sound when
    the concrete addition cannot wrap (callers certify that with an
    interval no-wrap check). *)

val entails_le : int -> int -> int64 -> t -> bool
(** [entails_le x y c t]: does [t] (ideally closed) already record
    [x - y <= c']  with [c' <= c]? *)

val to_string : t -> string
