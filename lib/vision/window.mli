(** Rectangular windows of interest.

    The tracking application manipulates lists of windows whose number and
    sizes vary per frame (3–9 in normal tracking, [n] full-image tiles during
    reinitialisation) — precisely the uneven workload that motivates the [df]
    skeleton in the paper. *)

type t = { x : int; y : int; w : int; h : int }

val make : x:int -> y:int -> w:int -> h:int -> t
(** Raises [Invalid_argument] on non-positive dimensions. *)

val area : t -> int
val contains : t -> int -> int -> bool
(** Test oracle: [test_tracking]'s "tracking windows cover next frame"
    checks with it that the predicted windows hold the next frame's marks. *)

val clip : t -> width:int -> height:int -> t option
(** [clip win ~width ~height] intersects with the image bounds; [None] when
    the intersection is empty. *)

val tile : width:int -> height:int -> int -> t list
(** [tile ~width ~height n] divides the full image into [n] windows of
    near-equal area (a grid as square as possible), the reinitialisation
    layout. The list always has exactly [n] elements covering every pixel;
    tiles are pairwise disjoint whenever [n <= width * height]. *)

val extract : Image.t -> t -> Image.t
(** [extract img win] copies the (clipped) window content. Raises
    [Invalid_argument] when the window lies fully outside the image. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
