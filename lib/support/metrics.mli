(** Domain-safe metrics registry for long-lived processes.

    A registry holds named instruments — monotonic {e counters}, settable
    {e gauges}, and log-bucketed latency {e histograms} (the shared
    {!Histogram}, so expositions line up bucket-for-bucket with the
    windowed series' latency windows). Registration is
    idempotent: asking for an existing (name, labels) pair returns the same
    instrument, so independent call sites accumulate into one series — and
    asking for it as a different instrument kind is an [Invalid_argument].

    Concurrency: counters and gauges are [Atomic.t] (gauge adds via a CAS
    loop), histogram observation serialises behind a per-histogram mutex —
    so pool domains may increment freely and no count is ever lost (pinned
    by an 8-domain qcheck in [test_metrics]). Snapshots ({!json},
    {!to_prometheus}) are deterministic functions of the instrument values:
    instruments sort by (name, labels) and numbers print with fixed
    formats, so two registries holding equal values render byte-identical
    text whatever the registration or increment interleaving. *)

type t

val create : unit -> t

(** {1 Counters} — monotonic integer totals. *)

type counter

val counter :
  t -> ?help:string -> ?labels:(string * string) list -> string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val set : counter -> int -> unit
(** Mirror an externally-maintained total (e.g. {!Store.counters}) into the
    registry at snapshot time. *)

val value : counter -> int

(** {1 Gauges} — floats that go up and down. *)

type gauge

val gauge :
  t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float
(** Test oracle: [test_metrics]'s "gauge arithmetic" reads a gauge back
    with it; the registry's exports read the cells directly. *)

(** {1 Histograms} — {!Histogram} under a mutex. *)

type histogram

val histogram :
  t -> ?help:string -> ?labels:(string * string) list -> string -> histogram

val observe : histogram -> float -> unit

val merge : histogram -> Histogram.t -> unit
(** Adds every sample of the histogram to the instrument, as
    {!Histogram.merge} does: merging a sequence of histograms in order
    gives the [sum] of folding them with {!Histogram.merge} from an empty
    one, bit for bit. *)

val snapshot : histogram -> Histogram.t
(** A consistent copy; read it with the {!Histogram} accessors.
    Test oracle: [test_metrics]'s "histogram count" reads a histogram
    back with it; the registry's exports take their own copies. *)

(** {1 Snapshots} *)

val json : t -> Json.t
(** [{"counters":[...],"gauges":[...],"histograms":[...]}], each instrument
    as [{"name","labels","value"}] (histograms carry
    [count]/[sum]/[mean]/[p50]/[p95]/[p99]/[buckets]), sorted by
    (name, labels). *)

val to_json : t -> string

val to_prometheus : t -> string
(** Prometheus text exposition, the only writer of the format in the tree:
    one [# HELP] (when the help is not empty) and [# TYPE] block per metric
    name, before its samples; samples sorted by (name, labels). Counters
    print as integers and gauges as [%.9f]; a histogram prints cumulative
    [_bucket{le="..."}] samples with [%.9g] bounds over its non-empty
    buckets, then [le="+Inf"] (equal to [_count]), [_sum] ([%.9f]) and
    [_count]. Label values escape backslash, double quote and newline
    only, as the text format defines. *)
