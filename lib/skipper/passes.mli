(** The staged pass manager behind {!Pipeline}.

    Each Fig. 2 toolchain stage is a named {!pass} with a typed input/output
    {!Stage.artifact}. A {!ctx} carries the compile options (function table,
    frame count, optimisation flag) and the execution target (architecture,
    mapping strategy, input); {!run_pass} threads an artifact through a
    pass, timing it and appending a {!Stage.report}.

    Front-end passes are memoized in an optional {!cache}: the key is a
    running content hash seeded with the entry artifact's digest and the
    table's {e content} digest ({!Skel.Funtable.digest}), then extended per
    pass with the pass name and the options that pass reads (frames for
    [extract], the optimise flag for [transform], ...). Compiling the same
    source for several architectures therefore runs
    parse/typecheck/extract/transform/expand exactly once — the paper's §4
    "almost instantaneous" variant builds — and equal compiles against
    independently constructed (but equally registered) tables share
    entries. Each cached result carries the derived-function registrations
    its pass performed ({!Skel.Funtable.derivation} values), replayed into
    the consuming table on a hit.

    When the cache is created over a {!Support.Store.t}, front-end results
    also persist on disk (marshalled under {!artifact_format}), so a second
    [skipperc] process compiling the same source starts warm. Target-
    dependent passes (cost, map, emit, simulate) always run: cost models
    contain closures and simulation is effectful, so they are not
    content-addressable. *)

type strategy = string
(** A mapping-strategy name, resolved against {!Syndex.Mapper} by the map
    pass; the default is ["canonical"]. Unknown names raise {!Pass_error}
    listing the registered strategies. *)

exception Pass_error of string
(** Rendered, located error message from any stage; re-exported by
    {!Pipeline} as [Compile_error]. *)

(** {1 Memoization cache} *)

type cache

val artifact_format : string
(** Version stamp of the marshalled cached-artifact encoding. Open stores
    destined for [?store] with this stamp, so entries written by an
    incompatible skipper build read as misses instead of garbage. *)

val create_cache : ?store:Support.Store.t -> unit -> cache
(** In-memory memo table, optionally backed by a persistent store shared
    across processes (and across domains — the store's counters are atomic
    and its writes are rename-atomic; the in-memory table itself is not
    shared between contexts living on different domains). *)

val cache_stats : cache -> int * int
(** [(hits, misses)] since creation or the last {!reset_cache_stats}. Hits
    count both in-memory and store hits; misses ran the pass. *)

val store_hits : cache -> int
(** How many of the hits were satisfied from the persistent store. *)

val reset_cache_stats : cache -> unit

(** {1 Pass context} *)

type ctx

val make_ctx :
  ?cache:cache ->
  ?frames:int ->
  ?optimize:bool ->
  ?df_state:Skel.Ir.state_mode ->
  Skel.Funtable.t ->
  ctx
(** Front-end context: default [frames] 1, [optimize] false, no cache.
    [df_state], when given, makes the transform pass rewrite every [Df]
    stage's declared state-access mode (the [--df-state] override); the
    program's [init] must already have the target mode's shape. *)

val retarget :
  ?cost:Syndex.Cost.t ->
  ?input:Skel.Value.t ->
  ?input_period:float ->
  ?trace:bool ->
  ?faults:(int * float) list ->
  ?restores:(int * float) list ->
  ?link_faults:Machine.Sim.link_fault list ->
  ?recovery:Executive.recovery ->
  ?checkpoint_every:int ->
  strategy:strategy ->
  ctx ->
  Archi.t ->
  ctx
(** Derives a back-end context for one (architecture, strategy) target.
    The returned context shares the report list and cache with the parent,
    so per-stage timings accumulate across compile + map + execute.
    [faults]/[restores]/[link_faults]/[recovery]/[checkpoint_every]
    (default: none) are the fault-injection plan, recovery policy and
    checkpoint cadence handed to {!Executive.run} by the simulate pass. *)

val reports : ctx -> Stage.report list
(** All reports recorded through this context (and its retargets), in
    execution order. *)

(** {1 Passes} *)

type pass

val pass_name : pass -> string

val parse : pass  (** [Source] -> [Ast] *)

val typecheck : pass  (** [Ast] -> [Typed] *)

val extract : pass  (** [Typed] -> [Ir] (reads [frames]) *)

val transform : pass
(** [Ir] -> [Ir]; applies the [df_state] mode override (when set, with
    re-validation), then {!Skel.Transform.normalize} when [optimize] is
    set, otherwise the identity (reported as ["disabled"]). *)

val expand : pass  (** [Ir] -> [Graph] *)

val cost : pass
(** [Graph] -> [Costed]; uses the retargeted cost model or the default. *)

val map : pass  (** [Costed] -> [Schedule] (needs a retargeted context) *)

val emit : pass  (** [Schedule] -> [Macro] *)

val simulate : pass
(** [Schedule] -> [Result] (needs a retargeted context with an input). *)

val frontend : pass list
(** [parse; typecheck; extract; transform; expand] — the memoized prefix. *)

val all : pass list
(** Every pass in pipeline order (backend chain ends with [emit] then
    [simulate]; drivers pick the suffix they need). *)

val find : string -> pass option
val names : string list

(** {1 Running} *)

val run_pass : ctx -> pass -> Stage.artifact -> Stage.artifact
(** Raises [Pass_error] on a stage failure or an artifact-type mismatch. *)

val run : ctx -> pass list -> Stage.artifact -> Stage.artifact

val run_trace : ctx -> pass list -> Stage.artifact -> Stage.artifact list
(** Like {!run} but returns every pass's output, aligned with the pass
    list. *)
