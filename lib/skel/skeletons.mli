(** Declarative (sequential, executable) definitions of the four SKiPPER
    skeletons, as published in the paper (§2, Fig. 4), plus the state-access
    modes of [df].

    These higher-order functions give skeleton-based programs their
    architecture-independent semantics, and they are the only code that
    folds them: the sequential emulation {!Sem}, the serialised one-worker
    farms of {!Funtable} and the REPL and constant evaluator
    [Minicaml.Eval] each project their own values and call these. A
    skeletal program emulated on a workstation must produce the same result
    as the parallel executive, provided the accumulation functions passed
    to [df]/[tf] are commutative and associative (the equivalence
    obligation the paper places on the implementor).

    Call order, which the callers' cycle sums depend on: [df] and its modes
    call [comp] then [acc] for each item in turn, in list order; [tf] calls
    [work] on a packet before [acc] on its result; [scm] calls [split], then
    [comp] on each part in order, then [merge]. [test_sem]'s call-order pins
    hold it. *)

val scm : int -> (int -> 'a -> 'b list) -> ('b -> 'c) -> ('c list -> 'd) -> 'a -> 'd
(** [scm n split comp merge x = merge (List.map comp (split n x))].
    Split, Compute and Merge: regular geometric data parallelism. [split n x]
    must return exactly [n] sub-domains for the operational version to use
    [n] compute processes; the declarative version accepts any length. *)

val df : int -> ('a -> 'b) -> ('c -> 'b -> 'c) -> 'c -> 'a list -> 'c
(** Data Farming: irregular data parallelism over a list of items, with
    dynamic load balancing in the operational version. Equal to Fig. 4's
    [df n comp acc z xs = List.fold_left acc z (List.map comp xs)], written
    as one fold that calls [acc] on each result as soon as [comp] made it.
    The first argument (number of workers) only affects the operational
    definition. *)

val df_ro : int -> ('e * 'a -> 'b) -> ('c -> 'b -> 'c) -> 'e * 'c -> 'a list -> 'c
(** Read-only state: [df_ro n comp acc (env, z) xs] is
    [df n (fun x -> comp (env, x)) acc z xs]. *)

val df_own :
  int -> ('s * 'a -> 's * 'b) -> ('c -> 'b -> 'c) -> 's list * 'c -> 'a list -> 's list * 'c
(** Owner-computes state: [df_own n comp acc (states, z) xs] gives item [i]
    to worker [i mod n], whose state is element [i mod n] of [states] ([n]
    or more of them); [comp (s, x) = (s', y)] replaces that state with [s']
    and [y] is folded as by [df]. Returns the final states and the fold. *)

val df_res :
  int -> ('s * 'a -> 's * 'b) -> ('c -> 'b -> 'c) -> 's * 'c -> 'a list -> 's * 'c
(** One shared resource: [df_res n comp acc (s, z) xs] threads [s] through
    [comp (s, x) = (s', y)] item by item and folds each [y] as by [df].
    Returns the final resource state and the fold. *)

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
    raises.

    Test oracle: no stage calls it (Sem and Eval drive bounded streams of
    their own); [test_skeletons]'s "bounded iteration" pins it. *)
