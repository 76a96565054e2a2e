(** The mapping engine.

    Every adequation strategy is a first-class value: a name, a one-line
    description, a [map] function producing a static schedule, and an
    optional [frontier] entry point returning several candidate schedules
    as latency/period trade-off points. [Pipeline] looks strategies up by
    name, and the CLI help and error messages list {!names} as the single
    source of truth.

    The strategies, in this order:
    - ["heft"] — the {!Heft} latency-minimising list scheduler;
    - ["canonical"] — the paper's Fig. 1 fixed layout ({!Place.canonical});
    - ["roundrobin"] — {!Place.round_robin};
    - ["throughput"] — frame-pipelined interval mapping: the process chain
      is partitioned into contiguous intervals, one per processor, so
      several frames are in flight at once and the steady-state period
      drops to the bottleneck interval (after Benoit, Kosch, Rehn-Sonigo &
      Robert, "Bi-criteria Pipeline Mappings");
    - ["bicriteria"] — bounded search over the interval mappings plus the
      HEFT point, emitting the latency/throughput Pareto frontier; [map]
      schedules the knee point (minimal latency x period). The HEFT point
      is scored first, then the interval candidates in ascending order of
      their estimated bottleneck. Each candidate is bounded first
      ({!Place.bounds}); when a point already scored is no worse than both
      bounds and strictly better than one, the candidate is strictly
      dominated and is skipped without being list-scheduled. Only
      dominated points are skipped, so the frontier, its order, its labels
      and the knee are those of scoring every candidate. *)

type point = {
  point_label : string;
  point_schedule : Schedule.t;
  point_latency : float;  (** predicted one-frame latency (makespan) *)
  point_period : float;  (** predicted steady-state period *)
}

(** {1 The mapping problem} *)

type problem
(** One process graph under one cost model on one architecture, and what
    the strategies build from it, shared by every strategy that maps it:
    - the scheduling DAG, built by {!problem};
    - built on first use and kept: one {!Place.scratch} that every schedule
      is list-scheduled and built in, the HEFT schedule (["heft"], and
      bicriteria's HEFT point), and the stage chain ({!linearize}) with its
      {!interval_partitions} table (["throughput"] and ["bicriteria"]).

    A strategy maps a problem to the same schedule, bit for bit, whether
    the problem is fresh or other strategies mapped it before, in any
    order; the kept HEFT schedule is returned again, physically. Interval
    schedules are built per call: on ring 32, the width perfbench maps,
    bicriteria's knee and throughput's pick have different cuts.
    A problem lives as long as its holder keeps it ([Pipeline] keeps one
    per compiled value and architecture). It is mutable and belongs to
    one domain, like a {!Place.scratch}. *)

val problem : Cost.t -> Archi.t -> Procnet.Graph.t -> problem
(** [problem cost arch g] builds the scheduling DAG of [g] under [cost]
    for [arch] ({!Dag.of_graph}, which raises on a cyclic DAG); nothing
    else is built until a strategy needs it. *)

(** {1 Strategies} *)

type t = {
  name : string;
  describe : string;
  map : problem -> Schedule.t;
  frontier : (problem -> point list) option;
}

val find : string -> t option
val names : unit -> string list
(** Strategy names, in the order listed above. *)

val registered : unit -> t list
(** Every strategy, in the order listed above. *)

val frontier : t -> problem -> point list
(** The strategy's trade-off frontier; strategies without a [frontier]
    entry point return the singleton of their [map] schedule. *)

val pareto : point list -> point list
(** Dominance filter: drops every point dominated in (latency, period) by
    another, deduplicates coincident points, and orders the survivors by
    (latency, period, label).
    Test oracle: [test_syndex]'s "pareto filter" checks it on fixed points,
    and its static-scheduler oracle filters the oracle's frontier with it. *)

val linearize : Dag.t -> int array
(** The interval mappers' stage chain: process-network node ids in order of
    first appearance of one of their ops in {!Dag.topological_order}.
    Test oracle: [test_syndex]'s "one interval table answers every k bit
    for bit" builds its chain with it. *)

val interval_partitions : Archi.t -> Dag.t -> int array -> int -> (float * int list) list
(** [interval_partitions arch dag seq k_max] partitions the stage chain
    [seq] into k = 1..[k_max] contiguous intervals (k_max <= length of
    [seq]), minimising the bottleneck interval time: compute load plus the
    communication entering the interval from earlier ones, over the
    architecture's mean cycle time and link costs. The [k]th element is the
    bottleneck and the cut list for k intervals: the k interval starts
    followed by the chain length. One O(n^2 * E) interval-cost matrix and
    one O(k_max * n^2) table answer every k; ties keep the earliest cut.
    The matrix is built one interval start a at a time: every channel
    crossing a is added, in dependency-list order, to the running sum of
    each interval end past the channel's end, and the sums are stored
    transposed (end-major), so the table reads each end's costs as one
    row.
    Test oracle: [test_syndex]'s "one interval table answers every k bit
    for bit" compares it with a per-k brute force. *)

val frontier_json : strategy:string -> arch:Archi.t -> point list -> string
(** Deterministic JSON rendering of a frontier (byte-identical across runs
    and [--jobs] levels): strategy, architecture, and per-point label,
    latency, period, frames in flight and placement. *)
