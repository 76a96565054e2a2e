(** The scheduling DAG derived from a process network.

    Process networks contain cycles (the df master/worker round trip, the
    itermem memory feedback). For static mapping these are broken the way
    SynDEx treats multi-phase operations: stateful control processes are
    split into two schedulable operations —

    - a [DfMaster]/[TfMaster] becomes a [Dispatch] op (sending tasks) and a
      [Collect] op (folding results);
    - a [Mem] becomes [Emit] (producing the frame's state) and [Store]
      (receiving the updated state for the next frame);
    - every other process is a single [Whole] op.

    Split halves carry a colocation constraint (they are the same process at
    run time, so they must live on one processor). The resulting graph is
    acyclic and covers exactly one stream iteration. *)

type part = Whole | Dispatch | Collect | Emit | Store

type op = {
  op_id : int;
  node : int;  (** originating process-network node *)
  part : part;
  cycles : float;
}

type dep = {
  dep_id : int;  (** position in [deps]: dense in [0 .. List.length deps - 1] *)
  src_op : int;
  dst_op : int;
  bytes : int;
  edge : Procnet.Graph.edge option;
      (** the originating channel; [None] for the implicit dispatch->collect
          ordering constraint inside a master *)
}

type t = {
  graph : Procnet.Graph.t;
  ops : op array;
  deps : dep list;
  preds : dep list array;  (** indexed by op id *)
  succs : dep list array;
  colocated : (int * int) list;  (** op pairs that must share a processor *)
  ops_of_node : int list array;  (** node id -> op ids *)
}

val of_graph : Cost.t -> Procnet.Graph.t -> t
(** Raises [Failure] if the derived graph still has a cycle (which would
    indicate an unsupported process-network shape). *)

val topological_order : t -> int list
