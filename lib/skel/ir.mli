(** The skeletal intermediate representation.

    A skeletal program is a composition of skeleton instances whose
    parameters are *named* sequential functions (resolved against a
    {!Funtable.t}). Both front-ends produce this IR: the embedded OCaml
    combinator API builds it directly, and the ML front-end
    ({!Minicaml.Extract}) recovers it from a typed abstract syntax tree.
    Downstream, {!Procnet.Expand} turns it into a process network.

    SKiPPER's skeletons compose but do not nest (paper §5: "their skeletons
    can be freely nested, ours not"): compute parameters of [scm]/[df]/[tf]
    are sequential functions, and only [itermem]'s loop body is a (skeleton)
    pipeline. [validate] enforces this. *)

(** How a [Df] farm accesses state across tasks and frames, after Danelutto,
    Torquati & Kilpatrick's classification. [Stateless] is the paper's
    original df. The [init] value's shape depends on the mode:

    - [Stateless]: the fold seed, reset every frame (the paper's df).
    - [Read_only]: [Tuple [env; seed]] — [env] is immutable shared state
      broadcast to every worker; [comp] receives [Tuple [env; x]]. The fold
      seed resets every frame.
    - [Accumulator]: the fold seed, {e carried across frames} — frame [f+1]
      folds on top of frame [f]'s result (global accumulation).
    - [Owner]: [Tuple [List states; seed]] with one partition state per
      worker. Task [i] belongs to partition [i mod nworkers]; [comp]
      receives [Tuple [s_k; x]] and returns [Tuple [s_k'; y]]. Partition
      states carry across frames; the fold seed resets every frame.
    - [Resource]: [Tuple [s; seed]] — a single serialised resource; [comp]
      receives [Tuple [s; x]] and returns [Tuple [s'; y]], tasks strictly in
      order. [s] carries across frames; the fold seed resets every frame. *)
type state_mode = Stateless | Read_only | Owner | Accumulator | Resource

val state_mode_name : state_mode -> string
(** ["stateless"], ["readonly"], ["owner"], ["accumulator"], ["resource"]. *)

val state_mode_of_string : string -> state_mode option
(** Inverse of {!state_mode_name}, with a few lenient spellings. *)

val state_mode_names : string list
(** The canonical spellings, for CLI help. *)

type t =
  | Seq of string
      (** apply a registered sequential function to the incoming value *)
  | Pipe of t list  (** left-to-right composition; [Pipe []] is the identity *)
  | Scm of { nparts : int; split : string; compute : string; merge : string }
      (** split into [nparts] sub-domains, compute each, merge the list of
          results *)
  | Df of {
      nworkers : int;
      comp : string;
      acc : string;
      init : Value.t;
      state : state_mode;
    }
      (** data farm over an incoming [List]: [fold acc seed (map comp)],
          with state discipline per {!state_mode} *)
  | Tf of { nworkers : int; work : string; acc : string; init : Value.t }
      (** task farm: [work] returns [Tuple [List new_packets; result]] *)
  | Itermem of { input : string; loop : t; output : string; init : Value.t }
      (** stream loop with memory: per frame [i], feeds
          [Tuple [state; input i]] to [loop], expects [Tuple [state'; y]],
          passes [y] to [output] *)

type program = {
  name : string;
  body : t;
  frames : int;
      (** number of stream iterations to run when the body is an [Itermem]
          (the paper's version loops forever on live video) *)
}

val program : ?frames:int -> string -> t -> program
(** Default [frames] = 1. *)

val validate : Funtable.t -> program -> (unit, string) result
(** Checks that every referenced function is registered, worker/part counts
    are positive, skeletons are not nested except under [Itermem]'s loop,
    [Itermem] appears only at top level, and stateful farm [init] values have
    the shape their mode demands (see {!state_mode}). *)

val has_stateful : t -> bool
(** True when any farm in the stage tree declares a non-[Stateless] mode —
    its state then carries across frames and the executive must run the
    stateful engine. *)

val with_state_mode : state_mode -> t -> t
(** Rewrite every [Df] stage to declare the given mode (recursing through
    [Pipe] and [Itermem]). The caller must re-{!validate}: the program's
    existing [init] must already have the new mode's shape. *)

val skeleton_instances : t -> string list
(** Names of skeleton constructors used, in traversal order, e.g.
    [["itermem"; "df"]] for the vehicle tracker; stateful farms report as
    ["df_<mode>"]. *)

val pp : Format.formatter -> t -> unit
val pp_program : Format.formatter -> program -> unit
