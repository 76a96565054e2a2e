(** Registry of application-specific sequential functions.

    In the paper these are the C functions a programmer supplies as skeleton
    parameters (e.g. [detect_mark], [accum_marks]); SKiPPER treats them as
    opaque computations with a communication interface. Here each function is
    an OCaml function over {!Value.t} together with a *cost model* — the
    number of processor cycles a call consumes as a function of its argument —
    used by the SynDEx-style scheduler and charged by the machine simulator.

    Multi-argument functions receive a [Value.Tuple]; binary folding functions
    (the [acc] parameter of [df]/[tf]) receive [Tuple [accumulator; item]].

    Beyond the user-registered base entries, compilation adds {e derived}
    entries: argument-shuffling wrappers around user functions (extraction)
    and fused/serialised compositions (transformation). These are described
    by a pure-data {!derivation} and installed with {!derive}, so the exact
    set of side effects a compile performs on its table can be recorded,
    persisted, and replayed onto another table — the mechanism that lets the
    compilation cache hit across independently constructed tables and across
    processes. *)

type entry = {
  name : string;
  arity : int;  (** number of source-language arguments; 1 means unary *)
  apply : Value.t -> Value.t;
  cost : Value.t -> float;  (** processor cycles consumed by one call *)
}

(** How a wrapper assembles one argument from the incoming dataflow value. *)
type spec =
  | Whole  (** the dataflow value itself *)
  | Proj of int  (** component [i] of the dataflow tuple *)
  | Const of Value.t

(** A derived entry as pure data: every constructor references other entries
    by name only, so a derivation list is [Marshal]-safe and structurally
    comparable. *)
type derivation =
  | Wrapper of { base : string; specs : spec list }
      (** glue code around a user function: build its argument (tuple) from
          the dataflow value per [specs], call [base] *)
  | Compose of { f : string; g : string }  (** [g (f v)] — fused [Seq] pair *)
  | Serial_df of { comp : string; acc : string; init : Value.t }
      (** one-worker data farm collapsed to a sequential fold *)
  | Serial_tf of { work : string; acc : string; init : Value.t }
      (** one-worker task farm collapsed to a sequential worklist loop *)
  | Serial_scm of { split : string; compute : string; merge : string }
      (** one-part split-compute-merge collapsed to a sequential pass *)

type t

val create : unit -> t

val register :
  t -> ?arity:int -> ?cost:(Value.t -> float) -> string -> (Value.t -> Value.t) -> unit
(** [register t name fn] adds a base entry. Default arity 1; default cost a
    small constant (1000 cycles). Raises [Invalid_argument] if [name] is
    already registered. *)

val derive : t -> string -> derivation -> unit
(** [derive t name d] installs the entry [d] describes under [name]
    (arity 1 — derived entries always consume the dataflow value whole).
    Idempotent when [name] is already derived with a structurally equal
    recipe; raises [Invalid_argument] when [name] exists as a base entry or
    with a different recipe — callers replaying a cached compile treat that
    as a cache miss. Raises [Failure] if a referenced base name is missing. *)

val derivations : t -> (string * derivation) list
(** Every derived registration, oldest first — replaying the list in order
    with {!derive} (see {!replay}) reproduces the table side effects of the
    compiles that built it. *)

val replay : t -> (string * derivation) list -> unit
(** [derive] each pair in order. *)

val digest : t -> string
(** Content digest (hex) of the {e base} entries — sorted [(name, arity)]
    pairs. Derived entries are excluded so the digest is stable across a
    compile's own side effects: a table digests the same before and after
    the programs it hosted were compiled. Two independently constructed
    tables with the same registrations digest equal. The digest cannot see
    OCaml closure bodies, so it trusts that a name denotes one behaviour —
    the same contract the paper places on user C functions. *)

val find : t -> string -> entry
(** Raises [Not_found]-carrying [Failure] with the unknown name. *)

val find_opt : t -> string -> entry option
val mem : t -> string -> bool
val names : t -> string list
(** Registered names (base and derived), sorted. *)

val apply : t -> string -> Value.t -> Value.t
val cost : t -> string -> Value.t -> float

val of_list :
  (string * int * (Value.t -> Value.t) * (Value.t -> float)) list -> t
(** Convenience bulk constructor: [(name, arity, apply, cost)] tuples. *)
