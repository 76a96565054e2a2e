(** Discrete-event simulator of a MIMD-DM machine.

    This is the executable stand-in for the paper's Transvision platform
    (a ring of T9000 Transputers with point-to-point links): processes are
    placed on processors, execute sequentially (one process at a time per
    processor, cooperative between communications), and exchange values over
    the architecture's links with startup + bandwidth costs, store-and-forward
    through intermediate processors, and per-link contention.

    Process bodies are plain OCaml functions written in direct style that
    call the primitives of {!Proc} ({!Proc.recv}, {!Proc.send},
    {!Proc.compute}, ...); each primitive performs an effect, and this
    module is their handler. The simulation is fully deterministic:
    simultaneous events are processed in creation order.

    Values computed are real {!Skel.Value.t}s, so a simulated run returns the
    actual program output, which tests compare against sequential
    emulation. *)

type t
type pid = Proc.pid

val create : ?trace:bool -> Archi.t -> t
(** [create arch] builds an empty machine over [arch]. With [~trace:true],
    the machine emits every event of the run into its {!timeline}; the
    timeline is held in memory and grows with the run. *)

val arch : t -> Archi.t

(** {1 Building and running} *)

val spawn : t -> name:string -> ?durable:bool -> on:int -> (unit -> unit) -> pid
(** [spawn t ~name ~on body] places a process on processor [on]. Bodies
    start running at time 0. Raises [Invalid_argument] for a bad processor
    id, or if the machine already ran.

    With [~durable:true] the process survives processor halts: messages
    delivered while its processor is down are spooled instead of dropped
    (recorded as ["spool (processor halted)"] fault events, not counted in
    [dropped_msgs]), and when the processor is {!restore_processor}d the
    body restarts from the top (recorded as ["restart (replay)"]). The
    restarted incarnation re-reads, per port and in the original order, the
    messages consumed since its last {!Proc.mark_stable}, then the unconsumed
    backlog, then the spooled deliveries — the classic checkpoint +
    message-log replay discipline. State held in OCaml refs created outside
    the body (stable storage) survives; refs created inside the body are
    re-initialised by the restart. *)

val inject : t -> ?at:float -> pid -> string -> Skel.Value.t -> unit
(** [inject t pid port v] delivers an external message (e.g. the program
    input) at time [at] (default 0) without charging any link. In traces the
    injection appears as an ["inject PORT"] instant on the environment
    lane. *)

(** {1 Fault injection}

    A machine carries a declarative, deterministic fault plan armed before
    {!run}: processor halts/restores and per-link message faults. Every
    fault that fires is traced as an instant on the affected processor's
    cpu lane (category ["fault"], named after the action) and counted (see
    {!fault_tally} and [stats.dropped_msgs]). *)

val halt_processor : t -> ?at:float -> int -> unit
(** Fault injection: at time [at] (default 0) the processor stops — its
    processes never run again and messages addressed to them are dropped
    (counted in [dropped_msgs]). Messages already in flight on links still
    occupy them. The rest of the machine keeps running, so tests can observe
    how an executive behaves when part of the ring dies (plain SKiPPER has
    no fault tolerance: the pipeline stalls, which {!Executive.run} reports
    as a [Stalled] outcome). *)

val restore_processor : t -> ?at:float -> int -> unit
(** Lifts a {!halt_processor} at time [at]: the processor dispatches again.
    Messages dropped while halted stay lost; processes that were ready
    resume, ones blocked in {!Proc.recv} keep waiting for a fresh message.
    Durable processes ({!spawn} with [~durable:true]) instead restart from
    the top with their journal and spooled deliveries replayed. *)

type fault_action =
  | Drop  (** the message never reaches the destination mailbox *)
  | Delay of float  (** delivery is postponed by this many seconds *)
  | Duplicate  (** the message is delivered twice *)

type fault_schedule =
  | Always
  | Nth of int  (** the nth matching delivery only, 1-based *)
  | Every of int  (** every kth matching delivery *)
  | Prob of float * int
      (** independent probability per matching delivery; deterministic via
          the embedded PRNG seed *)

type link_fault = {
  action : fault_action;
  link : (int * int) option;
      (** directed (src, dst) processor pair; [None] matches any remote
          link *)
  schedule : fault_schedule;
}

val link_fault :
  ?link:int * int -> ?schedule:fault_schedule -> fault_action -> link_fault
(** Constructor with the permissive defaults: any link, [Always]. A fault is
    armed for the whole run. *)

val add_fault : t -> link_fault -> unit
(** Arms a message fault. Faults apply at delivery time and only to genuine
    remote messages — environment injections ({!inject}) and same-processor
    copies are exempt, and a delayed/duplicated delivery is not re-faulted
    (each message suffers at most one fault per plan entry). When several
    armed faults match, the first armed one fires. *)

type fault_tally = { dropped : int; delayed : int; duplicated : int }

val fault_tally : t -> fault_tally
(** Messages affected by the fault plan (plus halt-induced drops in
    [dropped]). *)

val run : t -> float
(** Executes until the event queue drains, so {!utilisation}/{!accounts}
    cover the whole run.

    Returns the final simulation time. A process still blocked in
    {!Proc.recv} when the queue drains is simply terminated (streams end
    this way); a [compute]/[send] deadlock cannot occur since both always
    progress.
    Raises [Failure] if called twice.

    Concurrency: one machine must only ever run on one domain, but
    distinct machines may run on distinct domains concurrently (a machine
    keeps no global state: everything hangs off [t], and each process's
    effects go to the handler its own body runs under) —
    {!Support.Domain_pool} relies on this to farm whole simulations. *)

exception Process_failure of string * exn
(** Raised by {!run} when a process body raises: carries the process name
    and original exception. *)

(** {1 Results and metrics} *)

type stats = {
  finish_time : float;  (** time of last event *)
  messages : int;  (** total messages sent *)
  bytes : int;  (** total payload bytes sent *)
  busy : float array;  (** per-processor busy seconds *)
  hops_total : int;  (** total link traversals *)
  dropped_msgs : int;  (** deliveries lost to faults or halted processors *)
}

val stats : t -> stats

val live_times : t -> float array
(** Per-processor seconds during which the processor was alive (total time
    minus halt episodes). Equals [finish_time] everywhere on a healthy
    run. *)

val utilisation : t -> float
(** Mean processor busy fraction over the run ([0, 1]), measured against
    per-processor {!live_times} so a degraded run is not deflated by the
    dead capacity it could not have used. *)

(** {1 Event trace}

    With [~trace:true], the machine emits the full lifecycle of every
    computation and message straight into its own timeline, as it runs. A
    message is born in a ["send"] span (an environment injection is an
    ["inject PORT"] instant on {!Skipper_trace.Event.env_lane}), occupies
    each link along its route (one ["link"] span per reservation, on the
    links track), lands in the destination mailbox (a ["deliver"] instant)
    and is consumed by the receiving process (a ["recv"] span, zero-length
    when the delivery woke a blocked receiver, which pays no software
    overhead). The send and the recv carry a ["message"] flow pair keyed by
    the message id, so exporters draw arrows. Processes also emit
    ["compute"] spans, ["block"] and ["proc"]/["done"] instants; halts,
    restores and message faults are ["fault"] instants on the processor's
    cpu lane. *)

val timeline : t -> Skipper_trace.Event.timeline
(** The machine's own timeline, in emission order (empty unless
    [~trace:true]). Link spans carry their reservation start, which may lie
    after later-emitted events; {!Skipper_trace.Event.by_time} gives a
    chronological view. The timeline belongs to the machine: callers that
    add events of their own copy it first with
    {!Skipper_trace.Event.append} (see [Executive.timeline]). *)

(** {1 Accounting (always available, no tracing needed)} *)

type account = {
  aname : string;  (** process name *)
  on : int;  (** hosting processor *)
  busy_s : float;  (** busy seconds (compute + kernel overheads) *)
  blocked_s : float;
      (** seconds spent blocked in {!Proc.recv}; a process still blocked when the
          run drained is charged up to the finish time — or up to the halt
          instant when its processor died (a killed process is dead, not
          waiting) *)
  sends : int;
  finished : bool;  (** body ran to completion *)
  halted : bool;  (** hosting processor was halted at the end of the run *)
}

val accounts : t -> account list
(** Per-process busy/blocked breakdown, in spawn order. Idle time is
    [finish - busy - blocked]. *)

val link_occupancy : t -> ((int * int) * float * int) list
(** Per directed link [(src, dst)]: total occupied seconds and number of
    transfers, sorted by link; only links that carried traffic appear.

    Link time is booked first-fit, one transfer at a time per directed
    link, in a {!Support.Intervals} book: the contention model the static
    scheduler ([Syndex.Place]) predicts with. Every transfer departs at or
    after the clock, so before each booking the link's ended reservations
    are pruned, and a hop costs time proportional to the link's in-flight
    transfers, not to the run's history. The total reported here is
    bit-identical to summing every reservation the link ever had. *)

val port_depths : t -> ((string * string) * int) list
(** High-water mailbox depth per [(process name, port)], sorted — a depth
    over 1 means messages queued faster than the process consumed them. *)
