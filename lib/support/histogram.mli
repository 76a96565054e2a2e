(** Mergeable log-bucketed latency histogram.

    Buckets are geometric with ratio [2^(1/8)] (eight per octave, ≤ 9%
    relative resolution) from 1 µs upward; every bound is derived by IEEE
    multiplication from the base, so bucket assignment is deterministic
    across platforms. [merge] adds counts bucket-wise — it is associative
    and commutative, so histograms combine exactly in any order.

    This module is the single histogram implementation in the tree: the
    windowed series ({!Skipper_trace.Series}) and
    the daemon metrics registry ({!Metrics}) share it, so their expositions
    are bucket-for-bucket comparable. The structure itself is {e not}
    domain-safe — concurrent writers must serialise {!add} (the registry
    does, behind a mutex); merging and reading a quiescent histogram is
    safe anywhere. *)

type t

val create : unit -> t
val add : t -> float -> unit

val merge : t -> t -> t
(** Fresh histogram holding both operands' samples. *)

val copy : t -> t
(** Snapshot; later [add]s to the original leave the copy unchanged. *)

val count : t -> int

val sum : t -> float
(** Exact sum of the samples (not bucket-quantised). *)

val mean : t -> float
(** [sum / count]; [0.0] when empty. *)

val quantile : t -> float -> float
(** Nearest-rank quantile ([rank = max 1 (ceil (q * count))]) reported as
    the containing bucket's upper bound — conservative by at most one
    bucket ratio. [0.0] when empty. *)

val buckets : t -> (float * int) list
(** Non-empty buckets as (upper bound seconds, count), ascending —
    Prometheus [le] semantics. *)
