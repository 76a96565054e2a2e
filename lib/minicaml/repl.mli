(** Read-eval-print sessions over the specification language.

    The paper's workflow has the programmer exercise the functional
    specification interactively on a workstation before targeting the
    parallel machine; this module provides that loop: each input line (or
    [;;]-terminated chunk) is parsed as a top-level binding, an external
    declaration or an expression, type-checked incrementally against the
    session environment, evaluated with the sequential evaluator, and
    echoed OCaml-toplevel style ([val x : int = 42]).

    The functional API is side-effect free on errors (a failed line leaves
    the session unchanged), so the loop is robust and testable. *)

type session

val create : Skel.Funtable.t -> session
(** A fresh session over a function table (externals the source may
    declare). Itermem runs one frame. *)

type outcome = {
  session : session;  (** updated (or unchanged on error) session *)
  message : string;  (** what the toplevel prints for this input *)
  ok : bool;
}

val eval_input : session -> string -> outcome
(** Evaluates one input. Accepted forms: [let ...], [let rec ...],
    [external name : type], or a bare expression (bound to [it]).
    All front-end errors are caught and rendered into [message].

    Test oracle: [test_minicaml]'s "repl" cases drive sessions through it
    line by line, as {!run_channel} does. *)

val run_channel : ?prompt:bool -> Skel.Funtable.t -> in_channel -> out_channel -> unit
(** Drives a [;;]- or newline-delimited REPL over channels until EOF (the
    entry point used by [skipperc repl]). *)
