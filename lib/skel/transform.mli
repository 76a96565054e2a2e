(** Inter-skeleton transformational rules.

    The paper's conclusion (§6) names two follow-up directions; one is "to
    study inter-skeleton transformational rules, which are needed when
    applications are built by composing and/or nesting a large number of
    skeletons". This module provides a rewriting engine over the skeletal IR
    with a library of semantics-preserving rules:

    - [flatten_pipes]: [Pipe [a; Pipe [b; c]]] → [Pipe [a; b; c]], and
      [Pipe [s]] → [s];
    - [fuse_seq]: adjacent sequential stages [Seq f; Seq g] fuse into a
      single registered composition (one process instead of two — fewer
      communications in the executive);
    - [serialise_df] / [serialise_tf]: a farm with a single worker is a
      plain sequential computation; it rewrites to a registered [Seq] that
      folds the list locally (no master/worker round trips);
    - [serialise_scm]: a one-part scm likewise collapses to
      split-compute-merge in one process.

    All rules preserve the declarative semantics ({!Sem}); the test suite
    checks this on randomised programs and workloads. Fused/serialised
    functions are registered into the function table with composed value
    functions and summed cost models, exactly like the extraction wrappers —
    this is glue SKiPPER would generate. *)

type applied = { rule : string; count : int }

val normalize : Funtable.t -> Ir.program -> Ir.program * applied list
(** Applies the full rule set bottom-up to a fixpoint. Registered helper
    functions are added to the table as a side effect. The result validates
    against the same table. *)

val flatten_pipes : Ir.t -> Ir.t
(** The purely structural subset (no table needed).

    Test oracle: [test_transform]'s "structure" cases check it apart from
    the table-backed rules; {!normalize} runs it. *)

val applied_summary : applied list -> string
(** ["fuse-seq x2, serialise-df x1"], or ["no rules applied"]. *)
