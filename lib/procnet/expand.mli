(** Skeleton expansion: instantiating process network templates.

    Turns a validated skeletal program ({!Skel.Ir.program}) into a process
    graph by splicing one template per skeleton instance (paper Fig. 2,
    "skeleton expansion" box):

    - [Seq f]            — a single [Compute] process;
    - [Pipe]             — templates chained by dataflow edges;
    - [Scm]              — [ScmSplit] fanning out to [nparts] [Compute]
                           processes fanning into [ScmMerge];
    - [Df]               — [DfMaster] with bidirectional ["task"]/["result"]
                           channels to [nworkers] [DfWorker]s (Fig. 1 with
                           routing left to the link layer);
    - [Tf]               — like [Df] plus worker ["packet"] feedback;
    - [Itermem]          — [Input] and [Mem] feeding a [Join], the expanded
                           loop body, then a [Fork] returning the updated
                           state to [Mem] and the frame result to [Output]
                           (Fig. 4). *)

exception Expansion_error of string

val expand : Skel.Funtable.t -> Skel.Ir.program -> Graph.t
(** Raises [Expansion_error] when the program fails {!Skel.Ir.validate} or a
    produced graph fails {!Graph.validate} (the latter indicates a bug in the
    templates and is asserted against in the test suite). *)

val expand_stage : Skel.Ir.t -> Graph.t
(** Expands a bare stage with a synthetic entry/exit, without validating
    function names; useful for structural experiments on templates.
    Test oracle: [test_procnet] and [test_syndex] build their process
    networks from bare skeletons with it. *)
