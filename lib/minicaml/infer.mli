(** Polymorphic type inference for specification programs (Algorithm W with
    levels).

    The initial environment contains the four skeleton signatures exactly as
    published in the paper (§2 for [df], Fig. 4 for [itermem]):

    {v
    df      : int -> ('a -> 'b) -> ('c -> 'b -> 'c) -> 'c -> 'a list -> 'c
    scm     : int -> (int -> 'a -> 'b list) -> ('b -> 'c) -> ('c list -> 'd)
              -> 'a -> 'd
    tf      : int -> ('a -> 'a list * 'b) -> ('c -> 'b -> 'c) -> 'c
              -> 'a list -> 'c
    itermem : ('a -> 'b) -> ('c * 'b -> 'c * 'd) -> ('d -> unit) -> 'c
              -> 'a -> unit
    v}

    plus arithmetic/comparison/list operators and a few list builtins
    ([map], [fold_left], [length], [rev]). [external] declarations extend
    the environment with their declared schemes. *)

exception Type_error of string * Ast.loc

type env

val initial_env : env
val lookup : env -> string -> Types.scheme option
(** Test oracle: [test_minicaml]'s "skeleton signatures" reads the paper's
    published skeleton signatures back from {!initial_env} with it. *)

val infer_expr : env -> Ast.expr -> Types.ty
(** Raises [Type_error] with a located message on unbound variables or
    unification failures. *)

val infer_program : env -> Ast.program -> env * (string * Types.scheme) list
(** Processes top-level bindings in order; returns the final environment and
    the schemes of the names bound (externals included), in order. *)
