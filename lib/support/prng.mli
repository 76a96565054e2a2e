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

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

(** [trunc (s N)] for a standard normal [N], as scene noise draws it: one
    [bits64] and one compare per draw, from an alias table computed with
    IEEE-754 [+ - * /] and [sqrt] alone, so its bytes are the same on every
    platform (DESIGN.md, "Frame noise"). *)
module Trunc_normal : sig
  type table
  (** The alias table of one level [s]: integer weights [W_k] summing to
      exactly 2{^32} over [k = -half .. half], spread over [2{^b}] columns. *)

  val table : float -> table
  (** [table s] is the table for level [s], built on the first call for
      [s] and cached (one entry; safe to share between domains). Raises
      [Invalid_argument] unless [0 < s <= 1024]. *)

  val draw : t -> table -> int
  (** One value, with probability [W_k / 2{^32}] for [k]. Takes one
      [bits64]: its top [b] bits pick the column, its low 32 bits decide
      between the column's own value and its alias. Allocates nothing. *)

  val scatter :
    t -> table -> int -> width:int -> height:int -> map:Bytes.t -> Bytes.t -> unit
  (** [scatter t tbl n ~width ~height ~map data] makes [n] byte updates
      [data.[i] <- map.[(row d) 256 + data.[i]]] that draw exactly what [n]
      rounds of [let r = bits64 t in let d = draw t tbl in] draw. [i] is
      [y width + x], the row-major index of a position in a [width] by
      [height] raster: [x] is [(hi width) >> 32] and [y] is
      [(lo height) >> 32], for [hi] and [lo] the high and the low 32 bits of
      [r]. [d] is the value and [row d] is [d] clamped to [-m .. m], plus
      [m], for [map]'s [2 m + 1] rows of 256 bytes: a map whose rows past
      [|d| = m] would all equal its edge rows stops there. [t] ends where
      those [2 n] draws leave it. Updates apply in draw order, so a position
      drawn twice maps the byte the first update left. This is the pass
      behind [Scene.frame]'s noise: the state stays unboxed in a local for
      the whole pass, the alias pick is branch-free and no function is
      called per draw. Requires [width, height < 2{^31}]; raises
      [Invalid_argument] unless [width, height > 0],
      [width height <= Bytes.length data] and [Bytes.length map] is an odd
      multiple of 256. Allocates nothing. *)

  val half : table -> int
  (** The largest value a draw can return: the values are [-half .. half]. *)

  val weights : table -> (int * int) list
  (** [(k, W_k)] in increasing [k]; every [W_k > 0], and they sum to 2{^32}.
      Test oracle: [test_support]'s "noise tables encode their weights"
      compares the columns and the normal's bin masses with them. *)

  val columns : table -> (int * int * int) array
  (** Per column: its own value, the threshold below which a draw keeps it,
      and the alias value taken otherwise.
      Test oracle: [test_support]'s "noise tables encode their weights". *)

  val digest : table -> string
  (** MD5 (hex) of {!columns}: the bench's [noisetables] and [test_support]
      pin it per level. *)

  val chi_square : table -> t -> int -> float * int
  (** [chi_square tbl rng n] makes [n] draws and returns Pearson's
      statistic against the expected counts [n W_k / 2{^32}], with its
      degrees of freedom. Values are pooled in increasing order until each
      bin expects at least 5 draws. *)
end

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)
