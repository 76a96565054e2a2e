(** The adequation heuristic: list scheduling with earliest finish time.

    This fills the pipeline slot the paper delegates to SynDEx: a static
    distribution of the process graph onto the processor graph, minimising
    the predicted latency of one stream iteration. The algorithm is
    HEFT-style — operations are prioritised by upward rank (critical-path
    distance to the sinks, including mean communication costs) and each is
    placed on the processor minimising its earliest finish time, respecting
    the colocation constraints of split control operations.

    Predicted times are estimates over the {!Cost} model; actual latencies
    come from executing the mapped executive on the machine simulator. *)

val map : Cost.t -> Archi.t -> Procnet.Graph.t -> Schedule.t
(** Raises [Failure] when the graph's scheduling DAG is cyclic. *)

val map_dag : Archi.t -> Dag.t -> Schedule.t
(** [map_dag arch dag] is [map cost arch dag.graph] for a [dag] built by
    [Dag.of_graph cost], as {!Place.of_placement_dag} is to
    {!Place.of_placement}: bicriteria hands it the DAG its interval
    candidates come from. *)

val mean_link_costs : Archi.t -> float * float
(** Mean link startup (seconds) and bandwidth (bytes/s) over all links;
    [(0, infinity)] on a linkless architecture. *)

val mean_cycle_time : Archi.t -> float
(** Mean processor cycle time, seconds. *)
