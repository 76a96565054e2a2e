(** Skeleton nesting (an extension beyond the paper).

    The paper notes (§5) that OCamlP3L's skeletons "can be freely nested,
    ours not". SKiPPER-0's restriction is architectural: skeleton parameters
    are sequential functions, so a skeleton cannot appear inside another's
    compute slot. This module lifts the restriction the way SKiPPER-II later
    did for its first release: a nested skeletal stage is packaged as an
    ordinary sequential function — it runs *serialised* on whichever worker
    receives the packet — with a faithful cost model derived by instrumented
    emulation ({!Sem.eval_stage_cost}). The outer skeleton still
    parallelises; the inner one contributes its full sequential cost.

    This preserves both semantics (the declarative meaning of nesting is
    composition) and the emulation/executive equivalence, while documenting
    the performance model honestly: nested parallelism is not extracted. *)

val as_function : Funtable.t -> Ir.t -> string
(** [as_function table stage] registers a unary function running [stage]
    sequentially, under a fresh name ([nested_<skeleton>__n<k>]); its cost model charges the cycles the stage's
    sequential functions consume on the actual argument. Returns the
    registered name. [stage] must not contain [Itermem] (raises
    [Invalid_argument]). *)

val df :
  table:Funtable.t ->
  nworkers:int ->
  comp:Ir.t ->
  acc:string ->
  init:Value.t ->
  Ir.t
(** A data farm whose per-item computation is itself a skeletal stage. *)

val scm :
  table:Funtable.t ->
  nparts:int ->
  split:string ->
  compute:Ir.t ->
  merge:string ->
  Ir.t
(** An scm whose per-part computation is itself a skeletal stage. *)
