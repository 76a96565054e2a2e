(** The distributed executive.

    Final stage of the paper's Fig. 2: the mapped process graph is turned
    into per-processor executable code by inlining kernel primitives
    (communication, synchronisation, sequentialisation of user functions).
    Our target "platform" is the machine simulator, so kernel-primitive
    inlining produces one simulator process per graph node, each running the
    skeleton's control protocol in direct style:

    - [DfMaster] implements the data-farm protocol: it primes every worker
      with one item, then reacts to each result by folding it and feeding
      the idle worker the next item — the dynamic load balancing that
      distinguishes [df] from [scm];
    - [TfMaster] additionally pushes worker-generated packets onto its work
      queue and terminates on queue-empty + no outstanding work;
    - [Mem] emits the initial state on the first frame and thereafter
      replays each update, closing the itermem feedback loop;
    - user computations charge their {!Skel.Funtable} cost model to the
      hosting processor before their value is produced.

    Running an executive yields the program's actual output value (compared
    against {!Skel.Sem} in the test suite) together with timing metrics. *)

module Macro : module type of Macro
(** Re-exported macro-code emitter (this module is the library root). *)

type outcome =
  | Completed  (** every frame produced its output *)
  | Stalled of { collected : int; expected : int }
      (** the pipeline stopped making progress (typically a fault killed a
          needed process); [collected] frames finished out of [expected].
          The result still carries the partial outputs, stats and sim. *)

type recovery = { df_timeout : float; max_strikes : int }
(** Fault-tolerance policy for the [df] farm: a task outstanding longer than
    [df_timeout] seconds is reissued to an idle worker, and a worker that
    times out [max_strikes] times in a row (any reply resets its count) is
    retired from the pool (the farm then runs degraded). *)

val recovery : ?max_strikes:int -> float -> recovery
(** [recovery df_timeout] with [max_strikes] defaulting to 3. Raises
    [Executive_error] on non-positive arguments. *)

type result = {
  value : Skel.Value.t;
      (** same shape as {!Skel.Sem.run}: for itermem programs,
          [Tuple [final_state; List outputs]]; for plain programs the output
          of the last frame *)
  outputs : Skel.Value.t list;  (** per-frame outputs, in frame order *)
  outcome : outcome;
  stats : Machine.Sim.stats;
  output_times : float list;  (** completion time of each frame's output *)
  latencies : float list;
      (** per-frame latency: output completion minus the frame's availability
          time ([i * input_period]; equals [output_times] when unpaced) *)
  first_latency : float;  (** completion time of frame 0 *)
  period : float option;
      (** steady-state inter-frame period (mean of successive output-time
          differences); [None] when fewer than two frames completed — a
          single frame measures a latency, never a steady period *)
  input_period : float option;  (** the pacing the run was given, if any *)
  deadline_misses : int;
      (** frames whose latency exceeded [input_period] (0 when unpaced) *)
  reissues : int;  (** df tasks reissued after a timeout *)
  reissue_times : float list;
      (** simulated time of each reissue, in occurrence order — the windowed
          series attributes recovery work to the window it happened in *)
  retired_workers : int;  (** df workers retired after repeated timeouts *)
  checkpoints : int;
      (** checkpoints taken by durable masters/mems ([checkpoint_every]) *)
  replayed_frames : int;
      (** frames recomputed (not re-emitted) by restarted durable processes *)
  sim : Machine.Sim.t;  (** the finished machine, for traces and Gantt *)
}

exception Executive_error of string

val run :
  ?trace:bool ->
  ?input_period:float ->
  ?faults:(int * float) list ->
  ?restores:(int * float) list ->
  ?link_faults:Machine.Sim.link_fault list ->
  ?recovery:recovery ->
  ?checkpoint_every:int ->
  table:Skel.Funtable.t ->
  arch:Archi.t ->
  placement:int array ->
  graph:Procnet.Graph.t ->
  frames:int ->
  input:Skel.Value.t ->
  unit ->
  result
(** Builds and executes the executive. [placement] maps node ids to
    processors (length must equal the node count). [frames] is the number of
    stream iterations; non-itermem graphs re-process [input] that many
    times. [input_period], when given, paces the source: frame [i] is not
    produced before [i * input_period] (a 25 Hz camera is 0.04).

    Fault injection: [faults] halts processors at given times
    ([(processor, at)]), [restores] lifts halts, and [link_faults] arms
    message faults (see {!Machine.Sim.link_fault}). Without [recovery] the
    executive behaves like plain SKiPPER — a fault that kills a needed
    worker stalls the pipeline, reported as a [Stalled] outcome with partial
    outputs (never an exception). With [recovery], the [df] farm reissues
    timed-out tasks and retires repeatedly-failing workers, so a run can
    complete degraded.

    Stateful farms ([DfMaster] with a non-[Stateless]
    {!Skel.Ir.state_mode}) run the engine protocol: the master holds the
    state, tags tasks with [(frame, seq)], merges replies in sequence order
    (so any accumulation function agrees with the sequential oracle), and
    enforces the mode's routing discipline — load-balanced for
    readonly/accumulator, fixed partition routing with one outstanding task
    per partition for owner, fully serialised round-robin (the farm with
    feedback) for resource. [recovery] is rejected together with the
    engine.

    [checkpoint_every]: every [k] frames, durable control processes (df
    masters and the itermem [Mem]) snapshot their state to stable storage
    and truncate their replay journal ({!Machine.Sim.mark_stable}). A halt
    of their processor then no longer loses the stream: deliveries spool,
    and on restore the process replays from the checkpoint (recomputed
    frames are counted in [replayed_frames], never re-emitted), so the run
    [Completed]s where it would otherwise report [Stalled].

    Raises [Executive_error] on malformed graphs (e.g. explicit [Router]
    nodes, which only appear in the structural Fig. 1 template) and
    re-raises user-function exceptions wrapped in
    {!Machine.Sim.Process_failure}. *)

val run_schedule :
  ?input_period:float ->
  table:Skel.Funtable.t ->
  schedule:Syndex.Schedule.t ->
  frames:int ->
  input:Skel.Value.t ->
  unit ->
  result
(** {!run} with the architecture, placement and graph of a static
    schedule, untraced and fault-free. *)

val metrics : result -> Machine.Metrics.report
(** {!Machine.Metrics.analyse} on the run's machine with the executive-level
    [deadline_misses]/[reissues] counters and the per-frame [latencies]
    (populating the report's latency distribution) threaded in. *)

val timeline :
  ?slo:Skipper_trace.Series.Slo.report -> result -> Skipper_trace.Event.timeline
(** The run's message-lifecycle events as a fresh timeline (empty when the
    machine was created without [~trace:true]): one lane per process grouped
    under its hosting processor, one lane per directed link, plus the
    environment injections. With [slo], the monitor's state transitions are
    appended as instants on the SLO lanes. Each call copies the machine's
    own {!Machine.Sim.timeline}, which it never modifies, so repeated calls
    neither duplicate events nor see each other's SLO instants. Feed to
    {!Skipper_trace.Chrome.to_json}, {!Skipper_trace.Svg.gantt} or
    {!Skipper_trace.Conformance.analyse}. *)

val series :
  ?width:float ->
  result ->
  (Skipper_trace.Series.t, string) Stdlib.result
(** Windowed telemetry for the run: folds the trace timeline plus the
    executive's frame bookkeeping (output times, latencies, pacing,
    reissue times) into {!Skipper_trace.Series.t} windows. [width] is the
    window width in seconds, defaulting to the input period when the run was
    paced and 5 ms otherwise. [Error] when tracing was not enabled. *)

val summary : result -> string
(** Multi-line digest of a run: value, frame count and outcome,
    latency/period ([n/a] when a steady period was never measured), message
    traffic, and a fault line when anything was dropped, reissued, retired
    or late. Used by the [simulate] stage's artifact rendering. *)
