(** Call-by-value interpreter of the specification language: the REPL's
    evaluator ({!Repl}) and the evaluator of top-level constants during
    extraction. The sequential emulation of a compiled program (paper
    Fig. 2) is {!Skel.Sem}.

    The [df], [df_acc], [df_ro], [df_own], [df_res], [scm] and [tf]
    builtins project their arguments and run {!Skel.Skeletons}, as Sem
    does; one application drops a stateful farm's final state. [itermem]
    is bounded to a configurable number of frames (the paper's version
    loops forever on live video). Each builtin's arity is read off its
    scheme in {!Infer.builtins}. External functions resolve to entries of a
    {!Skel.Funtable.t}; their arguments cross the boundary as
    {!Skel.Value.t}s (tuples of ground values), and their per-call cycle
    costs are summed into the context so the emulator can also report the
    single-processor execution-time estimate.

    Camera convention: when an [itermem] input function is registered with
    arity 2, the emulator (like the parallel executive) passes it
    [(x, frame_index)] — the paper's [read_img] is a stateful video source;
    the explicit frame index keeps our functions pure. *)

type value =
  | Vbase of Skel.Value.t
  | Vtuple of value list
  | Vlist of value list
  | Vclos of closure
  | Vbuiltin of string * int * value list  (** name, arity, collected args *)

and closure

exception Runtime_error of string

type ctx = {
  table : Skel.Funtable.t;
  frames : int;
  mutable collected : Skel.Value.t list;  (** itermem outputs, reverse order *)
  mutable final_state : Skel.Value.t option;
  mutable cycles : float;  (** total external-function cycles charged *)
}

type env

val to_skel : value -> Skel.Value.t
(** Raises [Runtime_error] on closures/partial applications. *)

val pp_value : Format.formatter -> value -> unit

val initial_env : ctx -> env
(** Builtins + skeletons; externals are added by [eval_program]. *)

val make_ctx : ?frames:int -> Skel.Funtable.t -> ctx
(** Default [frames] = 1. *)

val eval_expr : ctx -> env -> Ast.expr -> value
val eval_program : ctx -> Ast.program -> env
(** Evaluates top-level bindings in order (external declarations bind table
    entries); returns the final environment. *)

val eval_program_env : ctx -> env -> Ast.program -> env
(** Like [eval_program] but extending an existing environment (REPL use). *)

val lookup : env -> string -> value option
