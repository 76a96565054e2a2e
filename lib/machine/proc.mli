(** The process primitives: what a process body may do on the simulated
    machine.

    A body is a plain OCaml function written in direct style; each
    primitive performs an effect, and {!Sim} — the only handler — gives it
    its meaning: simulated time, link contention, mailboxes, faults. So a
    body reads exactly like the pseudo-code of a SKiPPER kernel primitive
    sequence, and the same body could run under another handler.

    The primitives may only be called from inside a body spawned with
    {!Sim.spawn}; elsewhere every one of them raises [Not_in_process]. *)

type pid = int

exception Not_in_process

(** {1 The effects}

    Declared here so that a handler can match them; bodies call the
    functions below. *)

type _ Effect.t +=
  | Send : pid * string * Skel.Value.t -> unit Effect.t
  | Recv : string -> Skel.Value.t Effect.t
  | Recv_any :
      string list * float
      -> (string * Skel.Value.t) option Effect.t
        (** [None] only when the deadline passed first *)
  | Compute : float -> unit Effect.t
  | Sleep_until : float -> unit Effect.t
  | Now : float Effect.t
  | Mark_stable : unit Effect.t

(** {1 The primitives} *)

val now : unit -> float
(** Current simulation time, seconds. *)

val compute : float -> unit
(** [compute cycles] occupies the hosting processor for
    [cycles * cycle_time] seconds. *)

val send : pid -> string -> Skel.Value.t -> unit
(** [send dst port v] transmits [v] to process [dst]'s [port]. The sender is
    charged a fixed software overhead; the transfer itself proceeds like DMA:
    link occupancy along the route is serialised per link, and the sender
    does not wait for delivery. Local (same-processor) messages cost only a
    memory-copy time. *)

val recv : string -> Skel.Value.t
(** [recv port] blocks until a message is available on [port] and returns
    it. Messages per port arrive FIFO. *)

val recv_deadline :
  string list -> deadline:float -> (string * Skel.Value.t) option
(** [recv_deadline ports ~deadline] blocks until any of [ports] has a
    message (among ports with waiting messages, the earliest-delivered
    message is taken), but gives up at
    absolute time [deadline]: it returns [None] if no message arrived by
    then (the caller is resumed at the deadline), [Some (port, v)]
    otherwise. The timeout costs no busy time. This is the primitive a
    fault-tolerant executive needs to notice lost tasks. *)

val sleep_until : float -> unit
(** [sleep_until t] releases the processor and resumes no earlier than
    absolute time [t] (immediately if [t] has passed). Sleeping does not
    count as busy time; it models a process waiting on an external timer,
    e.g. a camera delivering frames at 25 Hz. *)

val mark_stable : unit -> unit
(** Truncates the calling durable process's replay journal: every message it
    consumed so far is covered by a checkpoint the caller has just secured,
    so a later restart replays only messages consumed after this point.
    Takes effect within the current zero-duration execution segment —
    processor halts only land at event boundaries, so saving a checkpoint
    and calling [mark_stable] in the same segment is atomic with respect to
    failures. A no-op for non-durable processes (their journal is never
    written). *)
