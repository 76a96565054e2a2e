(** Whole-image operators that the applications call as sequential
    functions. Both are pure: [invert] allocates a fresh image. *)

val invert : Image.t -> Image.t
(** [invert img] maps each pixel [v] to [255 - v]
    ([examples/divide_conquer.ml]). *)

val mean : Image.t -> float
(** [mean img] is the mean grey level, the leaf value of
    [Apps.Quadtree]. *)
