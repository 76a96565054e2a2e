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
  send_overhead_cycles : float;
      (** kernel cycles charged on the sender per posted message *)
  recv_overhead_cycles : float;
      (** kernel cycles charged on the receiver per completed receive *)
}

val default_send_overhead_cycles : float

val default_recv_overhead_cycles : float
(** The per-message kernel costs (200 / 150 cycles) the machine simulator
    charges a sender and a receiver ([Machine.Sim]); the static model
    defaults to the same values, so predicted comm slots line up with
    measured traces. See DESIGN.md, calibration constants. *)

val local_copy_bandwidth : float
(** Bytes per second of a same-processor message copy, charged by the
    machine simulator and used here to price intra-processor
    dependencies. *)

val make :
  ?fn_cycles:(string -> float option) ->
  ?control_cycles:float ->
  ?default_fn_cycles:float ->
  ?edge_bytes:(Procnet.Graph.edge -> int option) ->
  ?default_edge_bytes:int ->
  ?send_overhead_cycles:float ->
  ?recv_overhead_cycles:float ->
  unit ->
  t
(** [make ()] builds a model. [fn_cycles name] may return a per-function
    estimate (consulted for every node kind that carries a function name:
    compute, workers, split/merge, masters' fold, input/output).
    Control-only processes (join, fork, mem, routers) cost [control_cycles]
    (default 500). Unestimated functions cost [default_fn_cycles]
    (default 10000). [edge_bytes] likewise overrides the per-channel size
    (default 1024 bytes). [send_overhead_cycles] / [recv_overhead_cycles]
    calibrate the per-message kernel startup latency added around each
    predicted communication (defaults mirror the machine kernel). *)

val of_table : Skel.Funtable.t -> sample:(string -> Skel.Value.t option) -> t
(** Derives function costs by evaluating each registered function's cost
    model on a sample argument ([sample name]); functions without a sample
    fall back to defaults. *)

val node_function : Procnet.Graph.node -> string option
(** The sequential function a process applies, if any (masters report their
    fold function). *)
