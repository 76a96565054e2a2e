(** A reusable pool of OCaml 5 domains for farming independent jobs.

    The pool targets sweep-level parallelism: each job is a self-contained
    closure (it builds its own tables, machines and buffers, and returns its
    findings as a value) so jobs share nothing mutable and the farm is
    embarrassingly parallel. Results always come back in {e submit order},
    never completion order, so a parallel run is observationally identical
    to a sequential one — callers print, record and export results exactly
    as if they had run the jobs in a [List.map].

    Scheduling is work-stealing-free by design: workers pull the next job
    index from a shared atomic counter, which keeps the pool fair on uneven
    job costs (FastFlow's farm-with-autoscheduling, TR-12-04) without any
    per-worker queues to drain deterministically.

    With [jobs <= 1] (the default) everything runs in the calling domain and
    no domain is ever spawned, so sequential behaviour — including exception
    propagation — is the plain [List.map] one. *)

type span = {
  job : int;  (** submit-order index of the job *)
  domain : int;  (** pool worker (0 .. domains-1) that ran it *)
  start_s : float;  (** seconds from pool start *)
  finish_s : float;
}

type stats = {
  njobs : int;
  domains : int;  (** workers actually used (1 when sequential) *)
  wall_s : float;  (** pool wall-clock, start to last join *)
  busy_s : float array;  (** per-worker busy seconds, length [domains] *)
  jobs_run : int array;  (** per-worker job counts, length [domains] *)
  spans : span list;  (** one per job, in submit order *)
}

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the machine's useful domain
    count. *)

val jobs_from_env : ?var:string -> ?default:int -> unit -> int
(** Worker count from the environment ([SKIPPER_JOBS] unless [var] says
    otherwise), falling back to [default] (itself defaulting to 1). Test
    suites use this to opt in to parallel execution without a flag. *)

val run_stats : ?jobs:int -> (unit -> 'a) list -> 'a list * stats
(** [run_stats ~jobs thunks] executes every thunk and returns their results
    in submit order plus the pool telemetry. At most
    [min jobs (List.length thunks)] workers run concurrently (the calling
    domain is one of them, so [jobs] really is the parallelism degree, not
    [jobs + 1]).

    If a job raises, every job still runs to completion (a sweep is never
    half-torn-down), then the exception of the {e earliest submitted} failed
    job is re-raised in the calling domain — deterministic even when several
    jobs fail. *)

val run : ?jobs:int -> (unit -> 'a) list -> 'a list
(** {!run_stats} without the telemetry. *)
