(** Fixed placement strategies and schedule derivation.

    Besides the {!Heft} heuristic, the environment offers the placements a
    SKiPPER programmer would draw by hand — the "canonical" layout of the
    paper's Fig. 1 (control processes with the master on P0, workers spread
    over the remaining processors) and a plain round-robin. [of_placement]
    turns any placement into a full static schedule so the strategies can be
    compared on predicted latency (the mapping-ablation experiment). *)

val canonical : Procnet.Graph.t -> Archi.t -> int array
(** Control processes (masters, split/merge, mem, join, fork, input/output)
    on processor 0; worker and compute processes round-robin starting from
    processor 1 and wrapping around the whole machine (the paper's Fig. 1
    layout: master on P0, worker i on P(i+1)). *)

val round_robin : Procnet.Graph.t -> Archi.t -> int array
(** Node [i] on processor [i mod P]. *)

val of_placement : Cost.t -> Archi.t -> Procnet.Graph.t -> int array -> Schedule.t
(** List-schedules the graph's operations in topological order on the given
    fixed placement, yielding predicted op times, communications and
    makespan. Raises [Invalid_argument] when the placement array has the
    wrong length or names a missing processor. *)

val of_placement_dag : Archi.t -> Dag.t -> int array -> Schedule.t
(** [of_placement_dag arch dag] is [of_placement cost arch dag.graph]
    for a [dag] built by [Dag.of_graph cost]: the mappers that already hold
    the DAG do not derive it again. It is {!scratch}, {!run}, then the
    schedule built from the scratch. *)

(** {1 Scoring without building}

    A mapper that weighs many placements of one DAG needs only two numbers
    from most of them. A scratch holds everything one list schedule
    writes, allocated once; {!run} overwrites it and {!score} reads the
    two numbers back, so scoring a placement builds no op, comm or hop
    slot. A scratch belongs to one caller at a time. *)

type scratch

val scratch : Archi.t -> Dag.t -> scratch
(** Room to list-schedule [dag] on [arch], any number of times. *)

val run : scratch -> int array -> unit
(** [run sc placement] list-schedules the scratch's DAG on the fixed
    placement, as {!of_placement_dag} does, overwriting what an earlier
    [run] left. Raises like {!of_placement}. *)

val score : scratch -> float * float
(** The [(makespan, Schedule.resource_period)] of the schedule
    {!of_placement_dag} would build for the last {!run}'s placement, bit
    for bit. *)

(** {1 Bounding without scheduling}

    A mapper that only needs to know whether a placement can beat the
    points it already holds can ask for lower bounds instead of a score.
    They take one pass over the placed DAG, with no link book. *)

type bounds_scratch

val bounds_scratch : Archi.t -> Dag.t -> bounds_scratch
(** Room to bound placements of [dag] on [arch], any number of times; it
    keeps the route times it has computed. A scratch belongs to one caller
    at a time. *)

val bounds : bounds_scratch -> int array -> float * float
(** [bounds bs placement] is a lower bound on each of the two numbers
    {!score} gives after [run sc placement]: the makespan and the resource
    period. The period bound is the largest processor's compute load or
    the largest load of the first hops a link carries; the makespan bound
    is the largest of the contention-free longest path and, per processor
    and per link, the earliest release of what it serves plus its load
    plus the shortest tail after it. Both are scaled by [1 - 1e-9] to
    absorb the rounding of the scheduler's sums. Raises like {!run}.
    Test oracle: [test_syndex]'s "bounds never exceed the score" checks
    both against {!score} on random machines and placements. *)
