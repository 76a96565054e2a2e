(** The front-end memo cache, and the one helper that runs a stage.

    {!Pipeline} calls the Fig. 2 stages in order; {!stage} runs one of
    them, timing it and appending its {!Stage.report} to a {!log}.

    Front-end stages run under a {!cache} are memoized: the key is a
    running content hash seeded with the entry artifact's digest and the
    table's {e content} digest ({!Skel.Funtable.digest}), then extended per
    stage with the stage name and the options that stage reads (frames for
    [extract], the optimise flag and state override for [transform]).
    Compiling the same source for several architectures therefore runs
    parse/typecheck/extract/transform/expand exactly once — the paper's §4
    "almost instantaneous" variant builds — and equal compiles against
    independently constructed (but equally registered) tables share
    entries. Each cached result carries the derived-function registrations
    its stage performed ({!Skel.Funtable.derivation} values), replayed into
    the consuming table on a hit.

    When the cache is created over a {!Support.Store.t}, front-end results
    also persist on disk (marshalled under {!artifact_format}), so a second
    [skipperc] process compiling the same source starts warm. The back-end
    stages (cost, map, emit, simulate) always run: cost models contain
    closures and simulation is effectful, so they are not
    content-addressable. *)

type strategy = string
(** A mapping-strategy name, resolved against {!Syndex.Mapper} by
    {!Pipeline.map}; the default is ["canonical"]. Unknown names raise
    {!Pass_error} listing the strategies. *)

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
    shared between compiles running on different domains). *)

val cache_stats : cache -> int * int
(** [(hits, misses)] since creation or the last {!reset_cache_stats}. Hits
    count both in-memory and store hits; misses ran the stage. *)

val store_hits : cache -> int
(** How many of the hits were satisfied from the persistent store. *)

val reset_cache_stats : cache -> unit

(** {1 Running stages} *)

type log
(** One compiled program's stage record: the reports of every stage run on
    its behalf, and — for a compile under a cache — the running key of its
    front-end chain. *)

val start : ?cache:cache -> Skel.Funtable.t -> Stage.artifact -> log
(** A fresh log for compiling the entry artifact ([Source] or [Ir])
    against the table; with [cache], its front-end stages are memoized. *)

val stage :
  ?memo:string * (Stage.artifact -> 'a option) ->
  log ->
  string ->
  ('a -> Stage.artifact) ->
  (unit -> 'a * string) ->
  'a
(** [stage log name wrap work] runs [work] — which returns the stage's
    output and a detail note — and appends a report sized from
    [wrap output]. With [~memo:(token, unwrap)] (a front-end stage) under a
    cache, the key chain first advances by [name] and [token], the options
    the stage reads. A hit replays the entry's derivations into the table
    and returns [unwrap] of its artifact without running [work], reported
    as cached with zero wall time and detail ["memoized"] (in-memory) or
    ["store"]. An entry that does not unwrap or replay is a miss. *)

val reports : log -> Stage.report list
(** Every report appended to the log, in execution order. *)
