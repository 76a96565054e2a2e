(** Process-network graphs.

    The target-independent intermediate form of the paper's Fig. 2: nodes are
    sequential user functions and/or skeleton control processes, edges are
    communications. Skeleton expansion ({!Expand}) instantiates each
    skeleton's process network template into this representation; the
    SynDEx-style scheduler then maps it onto an architecture graph. *)

type kind =
  | Input of string
      (** frame source: applies the named input function to
          [Tuple [program_input; Int frame]] *)
  | Output of string  (** sink: applies the named output function *)
  | Compute of string  (** plain sequential pipeline stage *)
  | ScmCompute of { fn : string; part : int }
      (** one of the parallel compute processes of an scm instance *)
  | ScmSplit of { fn : string; nparts : int }
  | ScmMerge of { fn : string; nparts : int }
  | DfMaster of {
      acc : string;
      init : Skel.Value.t;
      nworkers : int;
      state : Skel.Ir.state_mode;
    }
      (** farm master; [state] selects the state-access discipline the
          executive runs (task routing, merge order, feedback) *)
  | DfWorker of { comp : string }
  | TfMaster of { acc : string; init : Skel.Value.t; nworkers : int }
  | TfWorker of { work : string }
  | Mem of { init : Skel.Value.t }
      (** itermem memory process: emits the current state each frame, stores
          the updated state fed back by the loop body *)
  | Join  (** pairs its ["state"] and ["data"] inputs into [Tuple [s; x]] *)
  | Fork
      (** splits an incoming [Tuple [a; b]] onto its ["fst"] and ["snd"]
          out-edges *)
  | Router of { dir : [ `Mw | `Wm ] }
      (** explicit routing process; only used by the literal Fig. 1 ring
          template in {!Templates} (generic executives route at link level) *)

type node = { id : int; kind : kind; label : string }

type edge = {
  src : int;
  src_port : string;
  dst : int;
  dst_port : string;
}

type t

val name : t -> string
val nodes : t -> node array
val nnodes : t -> int
val edges : t -> edge list
val nedges : t -> int
val node : t -> int -> node
val entry : t -> int
(** Node receiving the program's input value (or frame ticks). *)

val exit_node : t -> int
(** Node whose result is the program's output. *)

val in_edges : t -> int -> edge list
val out_edges : t -> int -> edge list
val out_edges_from_port : t -> int -> string -> edge list

val kind_name : kind -> string

(** {1 Construction} *)

module Builder : sig
  type graph := t
  type t

  val create : string -> t
  val add_node : t -> ?label:string -> kind -> int
  val add_edge : t -> ?src_port:string -> ?dst_port:string -> int -> int -> unit
  (** Default ports are ["out"] and ["in"]. *)

  val freeze : t -> entry:int -> exit_node:int -> graph
  (** Validates: endpoints exist, entry/exit exist, at most one in-edge per
      [(node, port)] except for master ["result"]/["task"] ports which accept
      many. Raises [Invalid_argument] on violation. *)
end

val validate : t -> (unit, string) result
(** Structural checks: every non-entry node is reachable from the entry,
    every [Join] has exactly its two ports fed, [Fork] has both out-ports
    used, worker counts match master declarations. *)

val to_dot : t -> string
val pp : Format.formatter -> t -> unit
