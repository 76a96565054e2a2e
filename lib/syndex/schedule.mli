(** Static schedules: the output of the adequation step.

    A schedule fixes where every process runs ([placement]), when each
    operation of one stream iteration executes, and the total order of
    communications on every link. SynDEx's key guarantee — a dead-lock free
    distributed executive — comes from this static per-link total ordering;
    {!deadlock_free} checks it explicitly by verifying that the union of
    operation precedence, message causality and per-link FIFO order is
    acyclic. *)

type op_slot = {
  node : int;
  part : Dag.part;
  proc : int;
  start : float;
  finish : float;
}

type hop_slot = {
  hop_src : int;
  hop_dst : int;
  hop_start : float;
  hop_finish : float;
}
(** One directed-link reservation of a communication: the store-and-forward
    transfer charges [link.startup + bytes / link.bandwidth] per hop, placed
    first-fit around the link's earlier reservations (mirroring the machine
    kernel), so predicted link occupancy is per-hop honest rather than an
    even split of the end-to-end duration. *)

type comm_slot = {
  edge : Procnet.Graph.edge;
  from_proc : int;
  to_proc : int;
  bytes : int;
  start : float;  (** departure from the source processor *)
  finish : float;  (** arrival at the destination processor *)
  hops : hop_slot list;
      (** per-link reservations along [Archi.route arch from_proc to_proc],
          in order *)
}

type stage_interval = {
  stage_proc : int;  (** processor hosting this pipeline stage *)
  stage_nodes : int list;  (** process-network nodes of the interval *)
  stage_load : float;  (** per-frame busy time of the stage, seconds *)
}

type pipelining = {
  frames_in_flight : int;
      (** frames concurrently resident in the pipeline at steady state *)
  predicted_period : float;
      (** predicted steady-state inter-output time: the bottleneck stage *)
  stages : stage_interval list;
}
(** Pipelined-interval metadata attached by frame-pipelining mappers
    ([throughput], [bicriteria]): the conformance joiner and Gantt overlays
    use it to compare predicted against measured steady-state throughput. *)

type t = {
  graph : Procnet.Graph.t;
  arch : Archi.t;
  placement : int array;  (** node id -> processor *)
  ops : op_slot list;  (** sorted by start time *)
  comms : comm_slot list;  (** sorted by start time *)
  makespan : float;  (** predicted latency of one iteration, seconds *)
  pipeline : pipelining option;  (** interval metadata, pipelining mappers only *)
}

val resource_period : t -> float
(** Lower bound on the steady-state period with one frame per iteration in
    flight per resource: the busiest processor's compute load or the busiest
    directed link's occupancy, whichever is larger. *)

val period : t -> float
(** The schedule's predicted steady-state period: the pipelining metadata's
    bottleneck stage when present, {!resource_period} otherwise. *)

val nops : t -> int
(** Number of scheduled operation slots (one per node per iteration). *)

val ncomms : t -> int
(** Number of scheduled communication slots. *)

val validate : t -> (unit, string) result
(** Checks that ops on one processor do not overlap, every op's processor
    matches the placement, every comm joins the placements of its edge's
    endpoints, and comm routes only use existing links. *)

val link_orders : t -> ((int * int) * comm_slot list) list
(** Communications grouped per directed link (first hop attribution), each
    list in scheduled order: the static communication schedule.
    Test oracle: [test_syndex]'s "link orders cover comms" checks it
    against the comm slots. *)

val deadlock_free : t -> bool

val gantt : t -> string
(** ASCII Gantt chart of the predicted schedule, one row per processor, 72
    columns wide. *)

val pp_summary : Format.formatter -> t -> unit
