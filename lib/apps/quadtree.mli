(** Divide-and-conquer region segmentation with the tf skeleton.

    The paper introduces [tf] as the skeleton for divide-and-conquer
    algorithms, where workers recursively generate new packets. This
    application segments an image into homogeneous quadrants: each packet
    carries a region's pixels; a worker either accepts the region as
    homogeneous (intensity spread below a tolerance or region too small to
    split) and returns its descriptor, or splits it into four sub-region
    packets. The accumulator collects leaf descriptors. *)

type region = {
  x : int;
  y : int;
  w : int;
  h : int;
  mean : float;
}

val register : Skel.Funtable.t -> unit
(** Registers [quad_work] (the tf worker function), [quad_acc], [quad_root]
    (builds the initial single-packet list from an image) and the
    [empty_leaves] constant (the accumulator seed, for the specification
    language). *)

val ir : nworkers:int -> Skel.Ir.program
(** [Pipe [Seq quad_root; Tf ...]] — a one-shot program whose input is an
    [Image]. *)

val leaves_of_value : Skel.Value.t -> region list
(** Decodes the accumulated leaf list, sorted by (y, x, w, h). *)

val reconstruct : width:int -> height:int -> region list -> Vision.Image.t
(** Paints every leaf region with its mean: a piecewise-constant
    approximation of the input (used to test coverage and disjointness). *)
