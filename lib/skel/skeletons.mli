(** Declarative (sequential, executable) definitions of the four SKiPPER
    skeletons, exactly as published in the paper (§2, Fig. 4).

    These higher-order functions give skeleton-based programs their
    architecture-independent semantics. The toolchain's "sequential
    emulation" branch (paper Fig. 2) is {!Sem}, which implements them over
    dynamic values: a skeletal program emulated on a workstation must
    produce the same result as the parallel executive, provided the
    accumulation functions passed to [df]/[tf] are commutative and
    associative (the equivalence obligation the paper places on the
    implementor).

    Test oracle: no stage of the toolchain calls these; [test_sem]'s "IR df
    matches the declarative combinator" compares {!Sem} against [df], and
    [test_skeletons] pins each definition. *)

val scm : int -> (int -> 'a -> 'b list) -> ('b -> 'c) -> ('c list -> 'd) -> 'a -> 'd
(** [scm n split comp merge x = merge (List.map comp (split n x))].
    Split, Compute and Merge: regular geometric data parallelism. [split n x]
    must return exactly [n] sub-domains for the operational version to use
    [n] compute processes; the declarative version accepts any length. *)

val df : int -> ('a -> 'b) -> ('c -> 'b -> 'c) -> 'c -> 'a list -> 'c
(** [df n comp acc z xs = List.fold_left acc z (List.map comp xs)].
    Data Farming: irregular data parallelism over a list of items, with
    dynamic load balancing in the operational version. The first argument
    (number of workers) only affects the operational definition. *)

val tf : int -> ('a -> 'a list * 'b) -> ('c -> 'b -> 'c) -> 'c -> 'a list -> 'c
(** Task Farming: generalisation of [df] where each worker may recursively
    generate new packets (divide and conquer). Declaratively, packets are
    processed depth-first:
    [tf n work acc z (x :: rest)] runs [work x = (subs, y)], then recurses on
    [subs @ rest] with accumulator [acc z y]. *)

val itermem : ('a -> 'b) -> ('c * 'b -> 'c * 'd) -> ('d -> unit) -> 'c -> 'a -> unit
(** The paper's Fig. 4 definition, verbatim:
    [itermem inp loop out z x] runs
    [let rec f z = let z', y = loop (z, inp x) in out y; f z' in f z].
    Never returns: the stream stops only when [inp], [loop] or [out]
    raises. *)
