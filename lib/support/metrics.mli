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

val snapshot : histogram -> Histogram.t
(** A consistent copy; read it with the {!Histogram} accessors. *)

(** {1 Snapshots} *)

val json : t -> Json.t
(** [{"counters":[...],"gauges":[...],"histograms":[...]}], each instrument
    as [{"name","labels","value"}] (histograms carry
    [count]/[sum]/[mean]/[p50]/[p95]/[p99]/[buckets]), sorted by
    (name, labels). *)

val to_json : t -> string

val to_prometheus : t -> string
(** Prometheus text exposition, one [# HELP]/[# TYPE] block per metric
    name, following the same conventions as
    {!Skipper_trace.Series.to_prometheus} ([_bucket{le="..."}] cumulative
    histograms with [+Inf], [_sum], [_count]; [%.9g] bucket bounds, [%.9f]
    float values). *)

val prometheus_labels : (string * string) list -> string
(** A Prometheus label set, [{k="v",...}] ([""] when empty), each value
    escaped as the text format defines: backslash, double quote and
    newline only. The one label writer of both expositions. *)
