(** Detected visual marks.

    A mark is a connected group of bright pixels characterised by its centre
    of gravity and englobing frame (paper §4). Marks cross process
    boundaries, so they have a {!Skel.Value.t} encoding. *)

type t = {
  x : float;  (** centre of gravity, absolute image coordinates *)
  y : float;
  area : int;
  min_x : int;
  min_y : int;
  max_x : int;
  max_y : int;
}

val of_region : dx:int -> dy:int -> Vision.Ccl.region -> t
(** Converts a region detected inside a window whose origin is [(dx, dy)]
    back to absolute coordinates. *)

val distance : t -> t -> float
(** Euclidean distance between centres. *)

val width : t -> int
val height : t -> int

val to_value : t -> Skel.Value.t
val of_value : Skel.Value.t -> t
(** Raises [Skel.Value.Type_error] on malformed encodings. *)

val list_to_value : t list -> Skel.Value.t
val list_of_value : Skel.Value.t -> t list
val equal : t -> t -> bool
