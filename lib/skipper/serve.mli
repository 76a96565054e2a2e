(** Compile-as-a-service: a long-lived daemon over a Unix domain socket.

    [skipperc serve] keeps one process — with one front-end
    {!Passes.memory} and one shared persistent {!Support.Store} — alive
    across many compile/run requests, so interactive rebuilds pay none of
    the process-startup or cold-cache cost. The wire protocol is deliberately small:

    - every frame is a 4-byte big-endian length followed by that many bytes
      of JSON;
    - a client frame is a {e batch}: [{"requests": [r1; r2; ...]}] (a bare
      request object is accepted as a batch of one);
    - the server replies with one frame [{"responses": [...]}], responses
      in request order;
    - request ops: ["compile"], ["run"], ["stats"], ["metrics"],
      ["shutdown"]. Compile and run carry [app] (names the function table)
      and [src] (the source text) plus optional
      [frames]/[optimize]/[procs]/[strategy].

    Requests within a batch are independent, so the server farms them on
    {!Support.Domain_pool} ([config.jobs] workers); each request compiles
    against a fresh table through a cache over the daemon's memory (one
    lock, a fixed budget) and the shared store (atomic counters,
    rename-atomic writes). A batch runs under {!Passes.with_snapshot}: it
    sees the memory as the previous batches left it, so its responses do
    not depend on [config.jobs]. A failed request produces a
    [{"status": "error"}] response; it never takes the batch or the server
    down.

    {2 Observability}

    The daemon is fully instrumented:
    - every request gets an id ([r0], [r1], ...) and a structured
      {!Support.Log} record (level [info], event ["request"], fields
      op/status/wall_ms), with batch- and connection-lifecycle records
      around it at [debug]/[info]/[warn];
    - a {!Support.Metrics} registry carries request/error/batch/byte
      counters, client and queue-depth gauges, per-op latency histograms
      ([skipper_serve_request_seconds{op=...}], sharing
      {!Support.Histogram}'s buckets with the windowed series), per-domain
      cumulative busy seconds, pass-cache counters, the
      [skipper_serve_aborted_frames] count of clients vanishing mid-frame,
      and — mirrored at snapshot time — the memory's entries, words and
      evictions and every {!Support.Store} counter;
    - with a [timeline], each request lands as a span on its pool domain's
      lane ({!Skipper_trace.Event.pool_lane}), times relative to daemon
      start, like {!Skipper_trace.Pool.emit} does for sweeps.

    Workers return pure outcomes; the dispatching domain applies all log,
    registry and timeline updates in submit order. Under a pinned log clock
    the daemon's log bytes and histogram contents are therefore identical
    at any [--jobs] level. A [stats] or [metrics] request observes the
    totals as of the {e previous} batch plus the current batch's arrival
    counts — a batch does not see its own latency observations.

    The library stays application-agnostic: callers inject how an [app]
    name maps to a function table and an input value, and how a processor
    count maps to an architecture. *)

exception Protocol_error of string
(** Malformed framing (oversized or negative length). Malformed JSON or
    requests inside a well-framed batch produce error {e responses}
    instead. A client that disconnects mid-frame is not a protocol error:
    the server logs it, bumps [skipper_serve_aborted_frames] and keeps
    serving everyone else. *)

type config = {
  table_of : string -> Skel.Funtable.t;
      (** fresh function table for one compile of [app]; called per
          request, possibly from a pool domain *)
  input_of : string -> Skel.Value.t option;
      (** input value for [run] when the source does not fix one *)
  arch_of : int -> Archi.t;  (** architecture for a [run] at [procs] *)
  store : Support.Store.t option;  (** shared across all requests *)
  jobs : int;  (** domain-pool width for batch requests *)
  log : Support.Log.t;  (** structured log; [Support.Log.null] to disable *)
  metrics : Support.Metrics.t option;
      (** registry to instrument; [None] uses a private one (still served
          by [stats]/[metrics] requests, but not visible to the caller
          after {!serve} returns) *)
  timeline : Skipper_trace.Event.timeline option;
      (** unified timeline for per-request pool spans *)
}

type request =
  | Compile of { app : string; src : string; frames : int; optimize : bool }
  | Run of {
      app : string;
      src : string;
      frames : int;
      optimize : bool;
      procs : int;
      strategy : string;
    }
  | Stats
      (** Deep snapshot: request/batch/error/aborted-frame counts, uptime,
          client count, the memory's entries, words, budget and evictions,
          the shared store's full counters and the whole registry as JSON
          ({!Support.Metrics.json}). *)
  | Metrics_dump
      (** The registry as a Prometheus text exposition, in the response's
          ["exposition"] field. *)
  | Shutdown

val max_procs : int
(** 1 024: a run builds a [procs] x [procs] routing table. *)

val max_frames : int
(** 1 000: a stream's frames queue in unbounded mailboxes. *)

val parse_request : Support.Json.t -> (request, string) result
(** [Error] names what is wrong: a missing or unknown [op], missing [app]
    or [src], or a [frames] field that is not an integral number from 1 to
    {!max_frames}, or a [procs] one from 1 to {!max_procs}. Absent,
    [frames] is 1 and [procs] 4. *)

val serve : config -> socket:string -> unit -> int
(** Binds [socket] (unlinking any stale file) and serves batches until a
    [shutdown] request; returns the total number of requests served.
    Connected clients are multiplexed with [select] — an idle client never
    blocks another client's connection or requests; one frame is handled at
    a time, in arrival order. SIGPIPE is ignored for the whole process from
    the first call on, so a client that closes before its reply is dropped
    (logged as an [io_error] disconnect) instead of killing the daemon. The
    socket file is removed on exit, also on exceptions. Store counters are
    mirrored into the registry one last time before returning, so a
    caller-supplied [config.metrics] is scrape-ready after shutdown. *)

val render_top : Support.Json.t -> string
(** Renders a [stats] response as the one-screen [skipperc top] dashboard:
    uptime, request rate, error/aborted counts, cache hit ratio, store
    counters, per-op latency quantiles and per-domain busy fractions. Pure
    function of the JSON (tested without a daemon). *)

(** {1 Client side} *)

val call :
  ?retries:int ->
  ?delay:float ->
  socket:string ->
  Support.Json.t list ->
  (Support.Json.t list, string) result
(** One connection, one batch: connect (retrying [retries] times, default
    50, sleeping [delay] seconds, default 0.1, while the daemon is still
    binding), send the batch, return the responses in request order. A
    socket that cannot be connected to, a daemon that closes the connection
    before or instead of replying, or a cut-short or malformed reply frame
    gives [Error]. SIGPIPE is ignored for the whole process from the first
    call on, so that a hang-up surfaces as that [Error] rather than a fatal
    signal. *)

val req_compile :
  ?frames:int -> ?optimize:bool -> app:string -> string -> Support.Json.t

val req_run :
  ?frames:int ->
  ?optimize:bool ->
  ?strategy:string ->
  procs:int ->
  app:string ->
  string ->
  Support.Json.t

val req_stats : Support.Json.t
val req_metrics : Support.Json.t
val req_shutdown : Support.Json.t
