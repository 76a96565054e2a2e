(** Drawing primitives, for visualising tracker output.

    All operations mutate the image in place and silently clip against its
    bounds. [v] is the grey level drawn (clamped to [0, 255]). *)

val rect : Image.t -> x:int -> y:int -> w:int -> h:int -> int -> unit
(** Rectangle outline. Degenerate (w or h <= 0) rectangles draw nothing. *)

val cross : Image.t -> x:int -> y:int -> size:int -> int -> unit
(** A plus-shaped marker centred at [(x, y)], arms of [size] pixels. *)

val window : Image.t -> Window.t -> int -> unit
(** Outline a window of interest. *)
