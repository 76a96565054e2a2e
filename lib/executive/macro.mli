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
    allocation table derived from cross-processor edges: one
    [alloc_channel_(chan_<src>_<dst>_<port>, Pa, Pb)] line per edge whose
    ends sit on different processors. *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf n] appends [string_of_int n] to [buf]; a non-negative [n]
    is written digit by digit, without going through C's [snprintf]. The
    listing writes every int this way.
    Test oracle: [test_executive]'s "digit writer is string_of_int"
    qcheck compares it with [string_of_int]. *)
