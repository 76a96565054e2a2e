(** The SKiPPER environment, end to end (paper Fig. 2).

    The toolchain is a fixed sequence of stages, called here in order:
    compilation runs the front end (parse, typecheck, extract, transform,
    expand), mapping and execution run the back end against a target (cost,
    map, then emit or simulate). Every stage goes through {!Passes.stage},
    which times it into a {!Stage.report} retrievable with {!reports} /
    {!pp_timings} and memoizes the front-end stages when a {!Passes.cache}
    is supplied — compiling one source for many architectures pays the
    front end once (the paper's §4 "almost instantaneous" processor-count
    variants). *)

type compiled = {
  name : string;
  table : Skel.Funtable.t;
  program : Skel.Ir.program;
  graph : Procnet.Graph.t;
  input : Skel.Value.t option;  (** program input when the source fixes it *)
  signatures : (string * string) list;
      (** inferred type schemes of the top-level names (source path only) *)
  log : Passes.log;  (** accumulates the reports of every stage run *)
  stages : (string * Stage.artifact) list;
      (** every front-end stage's output, by stage name, in pipeline order *)
  mutable problems : (Archi.t * Syndex.Cost.t * Syndex.Mapper.problem) list;
      (** the mapping problems {!map} has built on this value: one per
          architecture value and cost model, told apart by physical
          equality. A compile starts with none, and no problem goes into
          the {!Passes} memory or store, so no mapping work crosses
          compiles. *)
}
(** A compiled value belongs to one domain at a time: its report list and
    its mapping problems are mutable. A sweep over domains compiles once
    per job. *)

type strategy = Passes.strategy
(** A mapping-strategy name from the {!Syndex.Mapper} list (e.g.
    ["heft"], ["canonical"], ["roundrobin"], ["throughput"],
    ["bicriteria"]); see {!Syndex.Mapper.names}. *)

exception Compile_error of string
(** Carries a rendered, located error message from any stage (an alias of
    {!Passes.Pass_error}). *)

val compile_source :
  ?frames:int ->
  ?optimize:bool ->
  ?df_state:Skel.Ir.state_mode ->
  ?cache:Passes.cache ->
  table:Skel.Funtable.t ->
  string ->
  compiled
(** Parse, type-check (with the skeleton signatures in scope), extract the
    skeletal program, optionally normalise it with the transformational
    rules ({!Skel.Transform}, default off), and expand to a process network.
    Wrapper glue functions are registered into [table]. [df_state] overrides
    the declared state-access mode of every [df] farm (the [--df-state]
    flag); the program's init value must already have the target mode's
    shape. With [cache], every front-end artifact is memoized on (source
    digest, stage, options, table content digest). *)

val compile_ir :
  ?optimize:bool -> table:Skel.Funtable.t -> Skel.Ir.program -> compiled
(** The embedded-API entry: validates a hand-built program, then runs the
    transform and expand stages, unmemoized and with every farm's declared
    state-access mode. *)

val emulate : compiled -> Skel.Value.t -> Skel.Value.t
(** Sequential emulation via the declarative semantics ({!Skel.Sem}). *)

val map :
  ?strategy:strategy -> ?cost:Syndex.Cost.t -> compiled -> Archi.t ->
  Syndex.Schedule.t
(** Produce the static schedule/placement (default strategy ["canonical"],
    the paper's Fig. 1 layout; ["heft"] enables the automatic adequation
    heuristic, ["throughput"]/["bicriteria"] the frame-pipelined interval
    mappers). Runs the cost and map stages; without [cost] the cost stage
    uses the generic defaults ({!Syndex.Cost.make}, one value for every
    call), since the simulator charges exact data-dependent costs at run
    time regardless.

    Every strategy maps the compiled value's one {!Syndex.Mapper.problem}
    for [arch] (the same value) and the cost model, so the strategies of
    one variant share its DAG, scratch, HEFT schedule and interval table;
    the schedules are those of a fresh problem per call, bit for bit. A
    problem lives as long as the compiled value, so a caller mapping one
    compiled value many times passes one [arch] value, not a new one per
    call. *)

val frontier :
  strategy:strategy -> compiled -> Archi.t -> Syndex.Mapper.point list
(** The strategy's latency/period frontier ({!Syndex.Mapper.frontier}) on
    the problem {!map} maps for [arch] under the default cost model, so a
    frontier taken after such a map builds again only what its points
    need. It runs no stage and adds no report. *)

val execute :
  ?trace:bool ->
  ?input_period:float ->
  ?faults:(int * float) list ->
  ?restores:(int * float) list ->
  ?link_faults:Machine.Sim.link_fault list ->
  ?recovery:Executive.recovery ->
  ?strategy:strategy ->
  ?input:Skel.Value.t ->
  compiled ->
  Archi.t ->
  Executive.result
(** Map then run on the simulated machine (the cost, map and simulate
    stages), with the default cost model. [input] overrides the compiled
    input; raises [Compile_error] when neither is available.
    [faults]/[restores]/[link_faults] inject the fault plan into the
    simulated machine and [recovery] enables the fault-tolerant df farm
    (see {!Executive.run}); a stalled degraded run comes back as a
    [Stalled] outcome, not an exception. *)

val execute_with_schedule :
  ?trace:bool ->
  ?input_period:float ->
  ?faults:(int * float) list ->
  ?restores:(int * float) list ->
  ?link_faults:Machine.Sim.link_fault list ->
  ?recovery:Executive.recovery ->
  ?checkpoint_every:int ->
  ?strategy:strategy ->
  ?cost:Syndex.Cost.t ->
  ?input:Skel.Value.t ->
  compiled ->
  Archi.t ->
  Syndex.Schedule.t * Executive.result
(** {!execute}, also returning the static schedule the map stage produced —
    the predicted side of a conformance comparison
    ({!Skipper_trace.Conformance}) against the run's measured trace. [cost]
    replaces the default cost model and [checkpoint_every] enables the
    master checkpoint/replay discipline (see {!Executive.run}). *)

val check_equivalence :
  ?input:Skel.Value.t -> compiled -> Archi.t -> (Skel.Value.t, string) result
(** Runs both paths with fresh state and compares results; [Ok v] returns
    the common value. This is the paper's correctness story: the emulated
    specification and the distributed executive must agree. *)

val macro_code : compiled -> Syndex.Schedule.t -> string
(** The emit stage: per-processor m4 macro-code for a schedule. *)

val reports : compiled -> Stage.report list
(** Per-stage instrumentation, in execution order, accumulated across
    compile / map / execute calls on this value, up to the first 256
    ({!Passes.reports}). *)

val timeline :
  ?result:Executive.result ->
  ?slo:Skipper_trace.Series.Slo.report ->
  compiled ->
  Skipper_trace.Event.timeline
(** One unified timeline for the whole toolchain run: every stage report as
    a span on the compile lane, plus — when [result] is given — the
    simulated run's full message-lifecycle trace (processor lanes, link
    lanes, flow arrows), plus — when [slo] is given — the SLO monitor's
    state transitions as instants on the SLO lanes. Export with
    {!Skipper_trace.Chrome.to_json} or {!Skipper_trace.Svg.gantt}. *)

val pp_timings : Format.formatter -> compiled -> unit
(** {!reports} as a fixed-width table. *)

val dump_stage :
  ?arch:Archi.t ->
  ?strategy:strategy ->
  ?input:Skel.Value.t ->
  compiled ->
  string ->
  (string, string) result
(** Render one stage's artifact by stage name. Front-end stages come from
    the recorded compile artifacts; back-end stages ([cost], [map], [emit],
    [simulate]) are (re)run against [arch] with the default cost model,
    after the stages they consume.
    An unknown name is an [Error] listing all nine stages. *)

val graph_dot : compiled -> string
val pp_signatures : Format.formatter -> compiled -> unit
