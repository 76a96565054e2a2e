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

val placement : Archi.t -> Dag.t -> int array
(** [placement arch dag] is the HEFT placement of the scheduling DAG
    [dag] (built by [Dag.of_graph cost]) on [arch], one processor per
    process-network node. The ["heft"] strategy schedules it in its
    problem's scratch ({!Mapper.problem}). Raises [Failure] when the DAG
    is cyclic. *)

val mean_link_costs : Archi.t -> float * float
(** Mean link startup (seconds) and bandwidth (bytes/s) over all links;
    [(0, infinity)] on a linkless architecture. *)

val mean_cycle_time : Archi.t -> float
(** Mean processor cycle time, seconds. *)
