(** Target-architecture description.

    Like SynDEx, the target machine is described as a graph: nodes are
    processors, edges are point-to-point communication channels (Transputer
    links). The default constants model the paper's Transvision platform:
    T9000 Transputers at 20 MHz (50 ns cycles) with ~10 MB/s effective link
    bandwidth and ~1 µs message startup. Messages between non-adjacent
    processors are routed store-and-forward along shortest paths, which is
    the role of the paper's [M->W]/[W->M] router processes in Fig. 1. *)

type processor = {
  id : int;
  pname : string;
  cycle_time : float;  (** seconds per cycle; 5e-8 for a 20 MHz T9000 *)
}

type link = {
  src : int;
  dst : int;
  bandwidth : float;  (** bytes per second *)
  startup : float;  (** per-message latency, seconds *)
}

type t

(** {1 Message costs}

    What the simulator ([Machine.Sim]) charges for a message and what the
    mappers ([Syndex]) predict with (DESIGN.md, calibration constants). *)

val send_overhead_cycles : float
(** Cycles to post a send: 200. *)

val recv_overhead_cycles : float
(** Cycles to complete a receive: 150. *)

val local_copy_bandwidth : float
(** Bytes per second of a same-processor copy: 4e8. *)

val hop_time : link -> int -> float
(** [hop_time link bytes] = [startup + bytes / bandwidth]. *)

val name : t -> string
val processors : t -> processor array
val nprocs : t -> int
val links : t -> link list
val nlinks : t -> int

val link_at : t -> int -> link
(** [link_at t i] is the [i]th element of [links t]; link indices are
    dense in [0 .. nlinks t - 1]. *)

val link_between : t -> int -> int -> link option
val neighbours : t -> int -> int list
(** Test oracle: [test_archi]'s "ring" and "chain/star/grid" read each
    topology's adjacency with it. *)

(** {1 Topology constructors}

    All constructors accept the same optional cost parameters and build
    bidirectional channels (one link per direction). *)

val ring :
  ?cycle_time:float -> ?bandwidth:float -> ?startup:float -> int -> t
(** [ring n]: processors 0..n-1 connected in a cycle (the Transvision
    configuration used in §4). [ring 1] is a single processor with no links;
    [ring 2] a single bidirectional channel. Raises [Invalid_argument] when
    [n <= 0]. *)

val chain : ?cycle_time:float -> ?bandwidth:float -> ?startup:float -> int -> t
val star : ?cycle_time:float -> ?bandwidth:float -> ?startup:float -> int -> t
(** Processor 0 at the centre. *)

val grid :
  ?cycle_time:float -> ?bandwidth:float -> ?startup:float -> int -> int -> t
(** [grid rows cols]. *)

val fully_connected :
  ?cycle_time:float -> ?bandwidth:float -> ?startup:float -> int -> t

val custom :
  name:string -> processor array -> (int * int * float * float) list -> t
(** [custom ~name procs edges] with [(src, dst, bandwidth, startup)] directed
    edges. Raises [Invalid_argument] on dangling endpoints or duplicates.
    Test oracle: [test_archi] builds its random and disconnected machines
    with it, and [test_syndex] its disconnected pair and random link
    graphs. *)

(** {1 Routing} *)

val route : t -> int -> int -> int list
(** [route t a b] is the shortest processor path from [a] to [b], inclusive
    of both (so [route t a a = [a]]). Ties are broken towards
    lower-numbered intermediate processors, deterministically. Raises
    [Invalid_argument] on a bad processor id and
    [Failure "Archi.route: no path a -> b"] when [b] is unreachable.
    Test oracle: [test_archi]'s "transfer time equals the route fold bit
    for bit" and [test_syndex]'s static-scheduler oracle walk it. *)

val first_link : t -> int -> int -> int
(** [first_link t a b] is the index ({!link_at}) of the first link on
    [route t a b], or [-1] when [a = b] or no path exists. Constant time and
    allocation-free: following [first_link] from each link's [dst] visits
    exactly the links of [route t a b], which is how the simulator walks a
    message's hops. *)

val transfer_time : t -> int -> int -> int -> float
(** [transfer_time t a b bytes] is the store-and-forward latency of moving
    [bytes] from [a] to [b] along the route: in route order, each hop adds
    its [startup], then its [bytes / bandwidth], to the sum.
    Zero when [a = b]; otherwise raises like {!route}. *)
