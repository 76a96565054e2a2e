(** Domain-pool telemetry on the unified timeline.

    A {!Support.Domain_pool} sweep is itself a schedulable activity worth
    seeing: {!emit} renders the pool's statistics as one span per job on its
    executing worker's lane ({!Event.pool_lane}), so a parallel bench sweep
    gets a Gantt lane per domain next to the simulated machine's lanes.

    These spans carry {e wall-clock} times — unlike the simulator's lanes
    they are not deterministic and never feed byte-compared artifacts; they
    show how the jobs spread over the domains. *)

val emit :
  ?labels:string list -> Event.timeline -> label:string -> Support.Domain_pool.stats -> unit
(** [emit tl ~label stats] adds one span per job (named ["label#i"], or
    [List.nth labels i] when given) on its worker's lane, plus a summary
    instant on lane 0 with the job/domain counts and the pool wall time. *)

val to_json : ?labels:string list -> label:string -> Support.Domain_pool.stats -> string
(** A standalone Chrome trace of one pool run: {!emit} into a fresh
    timeline, exported with {!Chrome.to_json}. *)
