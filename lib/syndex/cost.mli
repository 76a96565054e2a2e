(** Cost model for static mapping.

    SynDEx's "adequation" needs per-operation worst/mean execution times and
    per-dependency data sizes. Dynamic skeletons make exact values
    data-dependent, so the mapper works from estimates: a table of mean
    cycles per sequential function and mean bytes per channel, both
    overridable per call site. The machine simulator then charges *actual*
    costs at run time; the scheduler only needs estimates good enough for
    placement decisions. *)

type t = {
  node_cycles : Procnet.Graph.node -> float;
      (** mean cycles per activation of a process *)
  edge_bytes : Procnet.Graph.edge -> int;
      (** mean payload bytes per message on a channel *)
}

val send_overhead_cycles : float

val recv_overhead_cycles : float
(** The per-message kernel costs (200 / 150 cycles) the machine simulator
    charges a sender and a receiver ([Machine.Sim]); the static model adds
    the same values around each predicted communication, so predicted comm
    slots line up with measured traces. See DESIGN.md, calibration
    constants. *)

val local_copy_bandwidth : float
(** Bytes per second of a same-processor message copy, charged by the
    machine simulator and used here to price intra-processor
    dependencies. *)

val make : ?fn_cycles:(string -> float option) -> unit -> t
(** [make ()] builds a model. [fn_cycles name] may return a per-function
    estimate (consulted for every node kind that carries a function name:
    compute, workers, split/merge, masters' fold, input/output).
    Control-only processes (join, fork, mem, routers) cost 500 cycles,
    unestimated functions 10 000, and every channel carries 1 024 bytes. A
    caller that needs other costs builds the record itself. *)
