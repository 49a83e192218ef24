(** Deterministic splittable PRNG (splitmix64).

    Every random choice the generator makes flows through one of these
    streams, so a campaign is a pure function of its root seed: the same
    [--seed N --count K] invocation reproduces the same programs, the
    same injected faults and the same oracle verdicts on any host.  The
    standard-library [Random] is never used. *)

type t

val create : int -> t
(** Fresh stream from an integer seed. *)

val split : t -> t
(** Independent child stream; advances the parent.  Used to give each
    generated test case its own stream derived from the campaign root. *)

val mix : int -> int -> int
(** [mix seed i] hashes a (seed, index) pair into a per-case seed
    without constructing intermediate streams. *)

val next64 : t -> int64
(** Raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). [bound] must be > 0. *)

val range : t -> int -> int -> int
(** [range t lo hi] draws uniformly from [lo, hi] inclusive. *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. *)
