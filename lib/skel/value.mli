(** Universal runtime values.

    Values flow across every layer of the environment: they are produced by
    sequential emulation, carried as messages by the machine simulator, and
    returned by parallel runs, so that the two execution paths of the paper's
    Fig. 2 can be compared for equality. The size model ([byte_size]) drives
    communication costs in the machine model. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Tuple of t list  (** at least 2 components *)
  | List of t list
  | Image of Vision.Image.t
  | Win of Vision.Window.t
  | Record of (string * t) list  (** field order is significant for equality *)

val unit : t
val int : int -> t
val float : float -> t
val bool : bool -> t
val str : string -> t
val pair : t -> t -> t
val list : t list -> t
val image : Vision.Image.t -> t
val window : Vision.Window.t -> t
val record : (string * t) list -> t

(** Checked projections; each raises [Type_error] with a descriptive message
    when the value has the wrong shape. *)

exception Type_error of string

val to_int : t -> int
val to_float : t -> float
val to_bool : t -> bool
val to_str : t -> string
val to_list : t -> t list
val to_pair : t -> t * t
val to_image : t -> Vision.Image.t
val field : string -> t -> t
(** [field name v] projects a record field. *)

val byte_size : t -> int
(** Serialised size estimate used for link-transfer costs: ints/floats are 4/8
    bytes, images [w*h + 8], containers add a small header. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
