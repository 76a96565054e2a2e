(** Deterministic splittable pseudo-random number generator (splitmix64).

    Every stochastic component of the environment (scene generation, workload
    synthesis, property tests that need auxiliary randomness) draws from an
    explicit [Prng.t] so that runs are reproducible from a single seed.

    The 64-bit state is kept unboxed, so drawing allocates nothing: scene
    rendering makes hundreds of thousands of draws per frame. *)

type t
(** A mutable generator. Drawing advances it in place. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. Equal seeds yield
    equal streams. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. *)

val copy : t -> t
(** [copy t] is a generator at the same point as [t]. The two advance
    independently. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] when
    [bound <= 0]. *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] is uniform in [lo, hi] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val gaussian : t -> float
(** Standard normal via Box–Muller. *)

val gaussian_trunc : t -> float -> int
(** [gaussian_trunc t s] is [int_of_float (s *. gaussian t)], and leaves
    [t] where [gaussian] leaves it, but computes the logarithm and cosine
    from tables: libm decides only the draws whose value lies too close to
    a nonzero integer for the tables' error bound (a guarded rounding test;
    see DESIGN.md, "Frame noise"). Allocates nothing. *)

val gaussian_trunc_draws : float -> int -> int -> int * bool
(** [gaussian_trunc_draws s n1 n2] is [gaussian_trunc]'s result for the
    raw 53-bit draws [n1] (the first nonzero one) and [n2], paired with
    whether the tables decided it ([false]: the guard fell back to libm).
    Raises [Invalid_argument] unless [0 < n1 < 2^53] and [0 <= n2 < 2^53].
    Test oracle: [test_support]'s "gaussian_trunc fallback band" and the
    bench's [noiseexact] check. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)
