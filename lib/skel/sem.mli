(** Sequential emulation of skeletal programs (the left branch of the paper's
    Fig. 2: running the specification on a workstation to check the
    correctness of the parallel algorithm).

    Emulation interprets the IR over dynamic {!Value.t}s: each [Scm], [Df]
    and [Tf] stage projects its values and runs the fold of {!Skeletons}
    (the same code the serialised farms of {!Funtable} and the REPL run),
    and a stateful farm keeps its carried state (accumulator, owner states,
    resource state) in cells across frames. The parallel executive
    ({!Executive} + {!Machine}) must agree with this module's results
    whenever the [df]/[tf] accumulation functions are commutative and
    associative. *)

exception Emulation_error of string

val eval_stage : Funtable.t -> Ir.t -> Value.t -> Value.t
(** [eval_stage table stage v] evaluates one stage on input [v].
    Calling conventions:
    - [Seq f]: [f v];
    - [Scm]: [split (Tuple [Int nparts; v])] must yield a [List]; [merge]
      receives the [List] of per-part compute results;
    - [Df]: [v] must be a [List]; [comp] maps items; [acc] receives
      [Tuple [accumulator; item_result]];
    - [Tf]: [v] must be a [List] of packets; [work] returns
      [Tuple [List new_packets; result]]; new packets are processed
      depth-first;
    - [Itermem] is rejected here (stream loops are driven by [run]).
    Raises [Emulation_error] on convention violations. *)

val eval_stage_cost : Funtable.t -> Ir.t -> Value.t -> Value.t * float
(** Instrumented variant of [eval_stage]: also returns the total cycles the
    stage's sequential functions would charge (the sum of their cost models
    over the actual calls made). Used to derive cost models for nested
    skeletons ({!Nest}). *)

val run : Funtable.t -> Ir.program -> Value.t -> Value.t
(** [run table prog input] emulates a whole program.

    When [prog.body] is an [Itermem ...], the stream is driven for
    [prog.frames] iterations: at frame [i] the input function receives
    [Tuple [input; Int i]], the loop receives [Tuple [state; x_i]] and must
    return [Tuple [state'; y_i]], and the output function's results are
    collected. The overall result is [Tuple [final_state; List outputs]].

    Otherwise the result is [eval_stage table prog.body input] — except
    when the body contains a stateful farm ({!Ir.has_stateful}) and
    [prog.frames > 1]: then the body is driven [frames] times over the same
    input with farm state carried across frames (matching the executive's
    streaming semantics) and the last frame's output is returned. *)

val run_stream : Funtable.t -> Ir.program -> Value.t -> Value.t list
(** Per-frame outputs of a non-itermem program driven for [prog.frames]
    frames over the same input, with stateful-farm state carried across
    frames — the frame-by-frame oracle for the executive's [outputs] list.
    Raises [Emulation_error] on an itermem program (those already stream
    through {!run}). *)

val run_cost : Funtable.t -> Ir.program -> Value.t -> Value.t * float
(** [run] plus the total sequential cycle count — the paper's workstation
    emulation doubling as a single-processor execution-time estimate. *)
