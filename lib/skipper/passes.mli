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

    Lookups go through three tiers: a {!memory} of cached entries, then
    (when the cache is created over a {!Support.Store.t}) the store, whose
    entries are marshalled under {!artifact_format} so that a second
    [skipperc] process compiling the same source starts warm, and last the
    stage itself. A store hit is copied into the memory. A cache made
    without [?memory] has a private one; a daemon gives every request's
    cache the same one, so a warm compile reads no store file. The
    back-end stages (cost, map, emit, simulate) always run: cost models
    contain closures and simulation is effectful, so they are not
    content-addressable. *)

type strategy = string
(** A mapping-strategy name, resolved against {!Syndex.Mapper} by
    {!Pipeline.map}; the default is ["canonical"]. Unknown names raise
    {!Pass_error} listing the strategies. *)

exception Pass_error of string
(** Rendered, located error message from any stage; re-exported by
    {!Pipeline} as [Compile_error]. *)

(** {1 Memoization cache} *)

type memory
(** Cached front-end entries by key, shared by every cache created over
    it, on any domain (one lock guards it). It keeps at most
    {!memory_budget_words} heap words, each entry measured once when it is
    inserted, and evicts the least recently used entries to make room. An
    evicted entry only costs a later lookup a store read or a stage run;
    results do not depend on what the memory holds. Cached artifacts are
    shared, never copied: nothing may mutate one after it is inserted. *)

val memory_budget_words : int
(** 2{^18} words (2 MiB on a 64-bit host). Fixed: a daemon's memory is
    bounded by it whatever the traffic. *)

val create_memory : unit -> memory

type memory_stats = {
  entries : int;
  words : int;  (** total measured size of the entries, at most the budget *)
  evictions : int;  (** entries evicted to make room, since creation *)
}

val memory_stats : memory -> memory_stats

val with_snapshot : memory -> (unit -> 'a) -> 'a
(** [with_snapshot memory f] runs [f], whose lookups in [memory] see only
    the entries it held when [f] began; what [f] inserts becomes visible
    when [f] returns. A daemon runs each batch under it, so that a
    request's hit and miss counts do not depend on how the batch's
    requests interleave across domains. Not reentrant. *)

type cache
(** One compile's view: a memory, an optional store, and the hit and miss
    counts of the compiles run under it. *)

val artifact_format : string
(** Version stamp of the marshalled cached-artifact encoding. Open stores
    destined for [?store] with this stamp, so entries written by an
    incompatible skipper build read as misses instead of garbage. *)

val create_cache : ?store:Support.Store.t -> ?memory:memory -> unit -> cache
(** A cache over [memory] (default: a fresh private one), optionally
    backed by a persistent store shared across processes and domains (the
    store's counters are atomic and its writes are rename-atomic). *)

val cache_stats : cache -> int * int
(** [(hits, misses)] since creation or the last {!reset_cache_stats}. Hits
    count both memory and store hits; misses ran the stage. *)

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
    as cached with zero wall time and detail ["memoized"] (from the memory) or
    ["store"]. An entry that does not unwrap or replay is a miss. *)

val fingerprint : log -> Stage.artifact -> string
(** [Stage.fingerprint art]. When [art] is the very graph the log's
    latest memoized stage (expand) produced or hit, the digest is computed
    once per memory entry and kept with it, so warm compiles do not render
    it again. *)

val reports : log -> Stage.report list
(** The reports appended to the log, in execution order: the first 256.
    Later stages run as before, but their reports are not kept, so a
    program mapped or run again and again keeps a bounded record. *)
