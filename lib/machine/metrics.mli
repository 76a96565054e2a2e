(** Post-run analysis of a simulated machine.

    SynDEx offered "optional real-time performance measurement" of the
    generated executive (paper §3); this module is that facility for the
    simulator: per-processor utilisation, per-link occupancy and contention,
    per-process busy/blocked/idle breakdown, mailbox high-water depths, a
    plain-text report for terminal display and a JSON summary for trajectory
    tracking (bench [--json]). Everything here works without tracing — the
    counters are maintained by the simulator itself. *)

type processor_load = {
  proc : int;
  busy : float;  (** seconds *)
  live : float;  (** seconds the processor was alive (not halted) *)
  fraction : float;  (** busy / live; 0 for a processor dead all run *)
  processes : int;  (** processes hosted *)
}

type link_load = {
  src : int;
  dst : int;
  link_busy : float;  (** seconds the directed link was occupied *)
  transfers : int;  (** messages that traversed it *)
  occupancy : float;  (** link_busy / finish_time *)
}

type process_breakdown = {
  name : string;
  on : int;  (** hosting processor *)
  busy_t : float;  (** seconds computing or in kernel overheads *)
  blocked_t : float;  (** seconds blocked in recv *)
  idle_t : float;  (** finish - busy - blocked (clamped at 0) *)
  sends : int;
}

type latency_stats = {
  n : int;  (** frames measured *)
  mean_latency : float;  (** seconds *)
  p50 : float;  (** nearest-rank percentiles, seconds *)
  p95 : float;
  p99 : float;
  jitter : float;
      (** population standard deviation, seconds; 0.0 when [n < 2] (a
          single frame has no spread to measure) *)
}

type report = {
  finish_time : float;
  mean_utilisation : float;
  loads : processor_load list;  (** by processor id *)
  hottest_process : (string * float) option;
      (** name and busy seconds of the busiest process *)
  messages : int;
  bytes : int;
  links : link_load list;  (** only links that carried traffic, sorted *)
  port_depths : ((string * string) * int) list;
      (** high-water mailbox depth per (process, port), sorted *)
  breakdown : process_breakdown list;  (** per process, in spawn order *)
  dropped_msgs : int;  (** deliveries lost to faults or halted processors *)
  deadline_misses : int;  (** executive frames late vs the input period *)
  reissues : int;  (** df tasks reissued after a timeout *)
  latency : latency_stats option;
      (** per-frame latency distribution; [None] without frame data *)
}

val latency_stats : float list -> latency_stats option
(** [None] on the empty list. Simulation-deterministic.

    Percentile convention (pinned by unit tests in [test_conformance]):
    with the samples sorted ascending, percentile [q] is the element at
    1-based nearest rank [round (q *. n +. 0.5)] (half away from zero),
    clamped into [[1, n]]. Edge cases: a singleton list yields that sample
    for every percentile and [jitter = 0.0]; for [n = 2] the half-rank
    rounds up, so [p50] of a pair is the larger element. *)

val analyse :
  ?deadline_misses:int -> ?reissues:int -> ?latencies:float list -> Sim.t -> report
(** Raises nothing; works on any finished (or even empty) machine.
    [deadline_misses] and [reissues] (default 0) are executive-level
    counters — the simulator cannot know them — threaded in so one report
    carries the whole degraded-run story. [latencies] (default none) are
    the per-frame output latencies the executive measured; they populate
    [latency]. *)

val imbalance : report -> float
(** Max processor busy *fraction* divided by the mean fraction, over
    processors that were alive at all (1.0 = perfectly level; 0 when
    nothing ran). On a healthy run this equals the classic max/mean busy
    time; on a degraded run halted capacity is excluded instead of
    counting as idle. *)

val hottest_link : report -> link_load option
(** The busiest directed link, or [None] when no remote message was sent.
    Equal loads break towards the lower [(src, dst)] pair, so the choice
    is a function of the loads alone, not of enumeration order. *)

val link_contention : report -> float
(** Occupancy fraction of the hottest link ([0, 1]; 0 without traffic) —
    the saturation indicator for the ring's store-and-forward routing. *)

val max_port_depth : report -> int
(** Deepest mailbox backlog observed anywhere (1 = every message was
    consumed before the next arrived). *)

val to_string : report -> string
(** Multi-line report with a utilisation bar per processor, the busiest
    process, the hottest link and the imbalance. *)

val to_json : report -> string
(** The whole report as one JSON object: scalar headline numbers plus
    [processors], [links], [ports] and [processes] arrays. Deterministic
    field order and number formatting.
    Test oracle: [test_determinism]'s "golden-bytes Metrics.to_json",
    "golden-fields Metrics.to_json" and "halted farms" pin it. *)

val summary_json :
  ?extras:(string * float) list -> experiment:string -> report -> string
(** One experiment entry of the bench harness's [--json] file. Every field
    is simulation-deterministic (no wall-clock anywhere), so two sweeps of
    the same experiments produce byte-identical entries regardless of the
    [--jobs] level; wall-clock data lives in the separate timing artifact.
    Core field set pinned by the golden test in [test_determinism];
    [extras] (default none) appends experiment-specific numeric fields
    (e.g. the conformance bench's [makespan_error]) after the core set,
    and every extra must itself be simulation-deterministic. *)
