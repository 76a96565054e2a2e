(** Schedule conformance: joins the measured message-lifecycle trace
    against the predicted static schedule.

    The adequation step promises a makespan and a placement of work over
    processors and links ({!Syndex.Schedule.t}); the simulator records what
    actually happened ({!Event.timeline}). [analyse] diffs the two:

    - {b per-op slack} — each graph node's predicted busy time (its op
      slots) against the measured per-frame compute time on its lane,
      plus the send/recv overhead the static model does not charge to
      the op;
    - {b per-link slack} — each directed link's predicted occupancy (comm
      slots charged per hop reservation) against the measured
      per-frame wire time;
    - {b makespan error} — predicted makespan vs measured per-frame
      latency (mean over frames when output times are known, otherwise
      the finish time of the last recorded activity);
    - {b measured critical path} — the gapless chain of activities
      (compute/send/recv spans and link hops) ending at the last-finishing
      activity, linked backwards through same-resource occupancy and
      message causality (send → hops → recv). Each element carries its
      clamped contribution to the path length, so the contributions sum
      to at most the measured makespan.

    The scalar [divergence] condenses the report for regression gates and
    fault experiments: |makespan error| plus the op and link slack
    magnitudes normalised by the predicted makespan. *)

type op_row = {
  op_node : int;
  op_label : string;
  op_proc : int;
  predicted_busy : float;  (** op slots, seconds per frame *)
  measured_busy : float;  (** compute spans per frame *)
  comm_overhead : float;  (** send + recv spans per frame *)
  op_slack : float;  (** measured_busy - predicted_busy *)
}

type link_row = {
  link_src : int;
  link_dst : int;
  predicted_occupancy : float;  (** the comm slots' hop reservations *)
  measured_occupancy : float;  (** link spans per frame *)
  link_slack : float;
}

type path_elem = {
  elem_lane : Event.lane;
  elem_kind : string;  (** "compute" | "send" | "recv" | "link" *)
  elem_label : string;
  elem_start : float;
  elem_finish : float;
  contribution : float;  (** clamped to the uncovered suffix, seconds *)
  share : float;  (** contribution / path_length *)
}

type frame_row = {
  frame : int;
  injected : float;
  completed : float;
  latency : float;
}

type report = {
  predicted_makespan : float;
  measured_makespan : float;
  makespan_error : float;  (** relative, signed *)
  divergence : float;
  predicted_period : float;
      (** the schedule's steady-state period bound ({!Syndex.Schedule.period}) *)
  measured_period : float option;
      (** mean inter-output spacing; [None] with fewer than two frames *)
  frames_in_flight : int;
      (** pipelining metadata when the mapper attached it; 1 otherwise *)
  ops : op_row list;  (** ordered by node id *)
  links : link_row list;  (** ordered by (src, dst) *)
  path : path_elem list;  (** chronological *)
  path_length : float;
  frames : frame_row list;
}

val analyse :
  schedule:Syndex.Schedule.t ->
  ?output_times:float list ->
  ?input_period:float ->
  Event.timeline ->
  (report, string) result
(** [Error] when the timeline holds no machine activity (tracing was not
    enabled). [output_times]/[input_period] turn makespan comparison into
    a per-frame latency comparison; without them the last activity's
    finish time stands in (single-frame runs). *)

val to_string : report -> string
(** Human-readable conformance report: makespan error, per-op and
    per-link slack tables, the measured critical path with per-element
    contribution percentages, and per-frame latencies. *)

val to_json : report -> Support.Json.t
(** Deterministic machine-readable form (stable key and row order).
    Test oracle: [test_conformance]'s "JSON byte-identical across jobs"
    fingerprints reports with it. *)

val predicted_overlay : Syndex.Schedule.t -> Svg.overlay_bar list
(** The schedule's op and comm slots as ghost bars for {!Svg.gantt}: ops
    on their process lanes, comm slots as their per-hop link reservations
    (startup + byte time each) on the link lanes. Predicts one iteration
    from t = 0. *)

val critical_overlay : report -> Svg.overlay_bar list
(** The measured critical path as highlight bars for {!Svg.gantt}. *)
