(** Skeleton-instance extraction: from a specification program to the
    skeletal IR (the "Skeleton expansion" input of paper Fig. 2).

    SKiPPER restricts the parallel structure of accepted programs: all
    parallelism must be expressed by composing skeleton instances whose
    functional parameters are external (sequential) functions, and data must
    flow linearly through the stages. Concretely, the extractor accepts a
    [main] of one of two shapes:

    - [let main = itermem inp loop out z x] — the stream form of §4, where
      [inp]/[out] are external names, [z] and [x] evaluate to constants, and
      [loop] is a (possibly named) function whose body is a linear chain
      [let v1 = stage1 ... in let v2 = stage2 ... in stageN ...];
    - [let main = fun x -> <linear chain>] or
      [let main = <linear chain applied to a constant>] — a one-shot
      pipeline.

    Each stage is an application of an external function or of a skeleton
    ([df]/[scm]/[tf]) whose list argument is the current dataflow variable.
    Other arguments must be compile-time constants (evaluated with the
    sequential evaluator, so e.g. [init_state ()] works) or components of
    the loop's input pair. Stage applications are compiled to fresh wrapper
    entries registered in the function table (the glue code SKiPPER
    generates around user C functions), so the resulting IR only references
    unary registered functions. *)

exception Extract_error of string * Ast.loc

type extraction = {
  program : Skel.Ir.program;
  input : Skel.Value.t option;
      (** the program input when the source fixes it (itermem's [x] argument
          or a constant application); [None] when [main] is a function *)
}

val extract : ?frames:int -> Skel.Funtable.t -> Ast.program -> extraction
(** [extract table prog] type-checks nothing by itself — run {!Infer} first —
    but evaluates global bindings with {!Eval} (registering wrapper
    functions into [table] as a side effect) and translates [main].
    [frames] (default 1) is stored in the produced program, which is named
    ["main"]. Raises [Extract_error] when the program is outside the
    supported skeletal subset, with the offending location. *)
