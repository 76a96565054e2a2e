(** Result-typed entry points for the front-end stages.

    The parser, type-checker and extractor each signal failure with their
    own located exception; every driver (the {!Skipper_lib.Pipeline} pass
    manager, [skipperc check], the REPL) used to re-implement the same
    catch-and-render glue. These wrappers centralise it: each stage returns
    [Ok artifact] or [Error message] with the location already rendered into
    the message. The stages keep no per-run mutable state (the type-variable
    counter is atomic and monotonic), so they are safe to run concurrently
    from a {!Support.Domain_pool} sweep. *)

val parse : string -> (Ast.program, string) result
(** Lex and parse a specification source. *)

val typecheck : Ast.program -> ((string * string) list, string) result
(** Infer the top-level schemes under the initial (skeleton) environment;
    returns [(name, rendered_scheme)] pairs in binding order. Scheme names
    are deterministic per run because rendering letters variables by first
    appearance, independent of raw variable ids. *)

val extract :
  ?frames:int -> Skel.Funtable.t -> Ast.program -> (Extract.extraction, string) result
(** Skeleton-instance extraction; registers wrapper functions into the
    table as a side effect (see {!Extract.extract}). *)
