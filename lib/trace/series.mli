(** Windowed time-series telemetry over the simulated timeline.

    Every other observability surface (metrics, conformance) reports
    end-of-run aggregates; this module folds the message-lifecycle trace and
    the executive's frame bookkeeping into fixed-width windows of simulated
    time, so "what was throughput during the fault window?" and "when did
    p99 first blow the frame budget?" have answers. On top of the series sits
    an {!Slo} monitor: per-window evaluation of declarations like
    ["p99_latency<8ms"] with burn-rate state (ok → warning → violated), a
    structured violations report, instants on the unified timeline and
    violation bands on the SVG Gantt.

    Everything here is simulation-deterministic: two builds from the same
    run produce byte-identical exports at any [--jobs] level. The JSON
    export is a {!Support.Json.t} printed by {!Support.Json.to_string},
    like every other JSON artifact of the toolchain. *)

type window = {
  index : int;
  w_start : float;  (** seconds, inclusive *)
  w_finish : float;  (** seconds, exclusive (last window absorbs the tail) *)
  frames : int;  (** frame outputs completed in this window *)
  messages : int;  (** process sends started in this window *)
  reissues : int;  (** df tasks reissued in this window *)
  deadline_misses : int;  (** late frames, attributed to their output window *)
  faults : int;  (** fault instants (halt/restore/drop/...) in this window *)
  in_flight : int;
      (** frames injected but not yet completed at the window's end;
          meaningful when [injections] was supplied to {!build} (negative
          otherwise, by construction — the count is injected minus
          completed) *)
  backlog : int;
      (** high-water mailbox backlog growth within the window: per-port
          deliveries minus consumptions, clamped at 0, measured from the
          window's opening backlog (window-local) *)
  busy : float array;  (** per-processor busy seconds, spans clipped *)
  link_busy : ((int * int) * float) list;
      (** per directed link, occupied seconds clipped to the window;
          only links active in the window, sorted by (src, dst) *)
  latency : Support.Histogram.t;  (** latencies of the frames completed in this window *)
  last_output : float option;
      (** completion time of the window's latest frame, for gap detection *)
}

type t = {
  width : float;  (** window width, seconds *)
  horizon : float;  (** end of observed time *)
  nprocs : int;
  windows : window array;  (** dense, window [i] covers [i*width, (i+1)*width) *)
}

type totals = {
  total_frames : int;
  total_messages : int;
  total_busy : float;  (** seconds, all processors *)
  total_reissues : int;
  total_deadline_misses : int;
  total_faults : int;
}

val build :
  width:float ->
  nprocs:int ->
  ?horizon:float ->
  ?output_times:float list ->
  ?latencies:float list ->
  ?input_period:float ->
  ?injections:float list ->
  ?reissue_times:float list ->
  Event.timeline ->
  (t, string) result
(** Folds the timeline (and the executive-level observation lists) into
    windows. [horizon] extends the covered range (the maximum of the
    argument and every observation is used).
    [output_times]/[latencies] must pair up index-wise; [input_period]
    classifies deadline misses (latency > period); [injections] are frame
    availability times (for [in_flight]); [reissue_times] are the
    executive's timestamped df reissues. [Error] on a non-positive width or
    mismatched observation lists. An empty timeline is a valid (all-zero)
    series — callers wanting "tracing was off" as an error check
    {!Event.length} first. *)

val throughput : t -> window -> float
(** Frames per second completed in the window. *)

val utilisation : t -> window -> float
(** Mean busy fraction over processors for the window ([busy / width];
    the final, possibly partial window divides by the full width too). *)

val totals : t -> totals
(** Sums over all windows — by construction equal to the run totals
    ([Sim.stats] messages, accounts busy time, executive frame counts);
    the equality is pinned property-wise in [test_series].
    Test oracle: [test_series]'s "window totals sum to the run's own
    counters" and "prometheus exposition parses back to the series", and
    [test_trace]'s "a run past the old cap is complete", read it. *)

(** SLO declarations, per-window evaluation and burn-rate alerting. *)
module Slo : sig
  type metric =
    | P50
    | P95
    | P99
    | Mean_latency
    | Miss_rate  (** deadline misses / frames, per window *)
    | Period  (** width/frames, or the widening gap since the last output *)
    | Throughput  (** frames per second *)
    | Utilisation  (** mean busy fraction *)

  type op = Lt | Le | Gt | Ge

  type spec = {
    raw : string;  (** the declaration as written, e.g. ["p99_latency<8ms"] *)
    metric : metric;
    op : op;
    threshold : float;  (** base units: seconds, fps, or a ratio *)
  }

  val parse : string -> (spec, string) result
  (** Parses ["METRIC OP VALUE[UNIT]"] — e.g. ["p99_latency<8ms"],
      ["miss_rate<0.01"], ["period<3ms"], ["throughput>=20"],
      ["utilisation>0.5"]. Ops: [<], [<=], [>], [>=]. Units: [us]/[ms]/[s]
      on time metrics, [%] on ratios, bare numbers otherwise. *)

  type state = Healthy | Warning | Violated

  (** Burn-rate semantics: a failing window moves Healthy → Warning, a
      second consecutive failing window Warning → Violated; any passing
      window returns to Healthy (a Violated → Healthy transition is a
      recovery); windows with no observation (e.g. no frame completed, for
      a latency metric) hold the state. *)

  type monitor = {
    spec : spec;
    final : state;
    transitions : (float * state * state) list;
        (** (window end time, from, to), in time order *)
    failing_windows : int;
    total_burn : float;  (** seconds: width × failing windows *)
    first_violation : float option;  (** first entry into Violated *)
    worst : (int * float) option;
        (** (window index, observed value) of the worst failing window *)
    recovered_at : float option;
        (** first Violated → Healthy transition after [first_violation] *)
    time_to_recovery : float option;
        (** [recovered_at - first_violation] *)
  }

  type report = { window_width : float; monitors : monitor list }

  val evaluate : spec list -> t -> report
  (** One monitor per spec, in argument order. *)

  val state_name : state -> string
  (** ["ok"], ["warning"] or ["violated"]. *)

  val to_string : report -> string
  (** The violations report: one line per SLO with first-violation time,
      worst window, total burn and time-to-recovery. *)

  val emit : Event.timeline -> report -> unit
  (** Appends every state transition as an instant on the SLO lanes
      ({!Event.slo_lane}), so Chrome/SVG exports carry the alerts on the
      unified timeline. *)

  val bands : report -> Svg.band list
  (** One full-height band per violation episode (first failing window of a
      bad spell through its last failing window), for
      {!Svg.gantt}'s [?bands]. *)
end

(** {1 Exporters}

    All three are deterministic functions of the series (and optional SLO
    report): fixed field order, fixed number formatting, no wall-clock
    anywhere — CI byte-compares them across [--jobs] levels. *)

val to_json : ?slo:Slo.report -> t -> string
(** One JSON object: [width_s], [horizon_s], [nprocs], [nwindows],
    [totals], [windows] (per-window rows with busy/links/
    latency percentiles and histogram buckets) and [slos] (empty array
    without [slo]). Top-level field set pinned in [test_determinism]. *)

val to_csv : t -> string
(** One row per window with derived columns (throughput, utilisation,
    p50/p95/p99 in milliseconds); header row first. *)

val to_prometheus : ?slo:Slo.report -> t -> string
(** Prometheus text exposition of the run: a {!Support.Metrics} registry
    filled from the series and printed by {!Support.Metrics.to_prometheus}.
    Counters hold the five integer totals; gauges hold the per-processor
    and per-link busy seconds (left folds over the windows from [0.0]),
    the last window's in-flight frames and the peak backlog; the histogram
    is the windows' latency histograms merged in window order; with [slo],
    gauges hold each SLO's state (0 ok, 1 warning, 2 violated) and burn
    seconds, labelled by its raw spec. *)
