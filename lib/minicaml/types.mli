(** Types and unification for the specification language.

    Standard Hindley–Milner with level-based generalisation (Rémy-style):
    each unification variable carries the let-nesting level at which it was
    created; [generalize] quantifies exactly the variables deeper than the
    current level. Abstract data carried between external C functions
    ([image], [window], [mark], ...) appears as opaque nullary constructors.
*)

type ty =
  | Tvar of tv ref
  | Tcon of string * ty list
      (** ["int"], ["list" [t]], ["->" [a; b]], ["tuple" ts], or an opaque
          external type name *)

and tv = Unbound of int * int  (** id, level *) | Link of ty

type scheme = { vars : int list; body : ty }
(** [vars] are the ids of the quantified unification variables. *)

val new_var : int -> ty
(** [new_var level] is a fresh unification variable at [level]. Ids come
    from one atomic counter, so they stay unique across domains; stable
    variable {e names} come from {!to_string}, which letters variables by
    order of first appearance. *)

val int_t : ty
val float_t : ty
val bool_t : ty
val string_t : ty
val unit_t : ty
val list_t : ty -> ty
val arrow : ty -> ty -> ty
val arrows : ty list -> ty -> ty
val tuple : ty list -> ty

exception Unify_error of ty * ty

val unify : ty -> ty -> unit
(** Raises [Unify_error] on constructor clash or occurs-check failure. The
    error carries the two whole types being unified at the point of failure.
*)

val generalize : int -> ty -> scheme
(** [generalize level ty] quantifies the unbound variables of [ty] whose
    level is strictly greater than [level]. *)

val instantiate : int -> scheme -> ty
(** Fresh instance at the given level. *)

val mono : ty -> scheme

val of_type_expr : Ast.type_expr -> scheme
(** Interprets a syntactic type from an [external] declaration; named type
    variables ('a, 'b, ...) become quantified variables; unknown type names
    become opaque constructors. Raises [Failure] on arity misuse of builtin
    constructors. *)

val to_string : ty -> string
(** Pretty form with variables renamed to 'a, 'b, ... deterministically. *)

val scheme_to_string : scheme -> string
