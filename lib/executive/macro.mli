(** Target-independent macro-code emission.

    SynDEx's executives are emitted as m4 macro-code, one file per
    processor, later turned into compilable code by inlining a small set of
    kernel primitives ([comp_], [send_], [recv_], [loop_], ...). This module
    reproduces that textual stage: given a mapped process graph it prints,
    for each processor, the processes it hosts and the kernel-primitive
    sequence each executes per stream iteration. The simulator's behaviours
    ({!Executive}) are the inlined form of exactly these sequences, so the
    emitted text documents what actually runs. *)

val emit : Procnet.Graph.t -> placement:int array -> arch:Archi.t -> string
(** Full macro-code listing: a [divert]-style header, one
    [define(`Pk_PROGRAM', ...)] block per processor in use, plus the channel
    allocation table derived from cross-processor edges. *)

val channel_table : Procnet.Graph.t -> placement:int array -> (string * int * int) list
(** [(name, from_proc, to_proc)] for every inter-processor channel, named
    [chan_<src>_<dst>_<port>]. *)
