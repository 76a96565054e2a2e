(** Connected-component labelling and region statistics.

    This is the detection kernel of the paper's vehicle-tracking case study
    (marks are "connected groups of pixels with values above a given
    threshold", characterised by centre of gravity and englobing frame) and
    the subject of the companion scm application (Ginhac et al., MVA'98).

    Connectivity is 4-neighbourhood. Foreground = pixels with value [>= t]. *)

type labelling = {
  labels : int array;  (** row-major, 0 = background, regions numbered from 1 *)
  width : int;
  height : int;
  ncomponents : int;
}

type region = {
  label : int;
  area : int;
  cx : float;  (** centre of gravity, x *)
  cy : float;
  min_x : int;  (** englobing frame, inclusive bounds *)
  min_y : int;
  max_x : int;
  max_y : int;
}

val label : threshold:int -> Image.t -> labelling
(** Two-pass union-find labelling: one pass over the rows assigns
    provisional labels and records equivalences in a union-find that grows
    with the number of labels; a second pass resolves and renumbers. Labels
    are dense in [1, ncomponents] and assigned in raster order of each
    component's first pixel. *)

val label_flood : threshold:int -> Image.t -> labelling
(** Reference implementation: BFS flood fill. Same label-numbering convention
    as [label].
    Test oracle: [test_ccl]'s "two-pass labelling matches flood fill"
    compares [label] against it. *)

val regions : labelling -> region list
(** Region statistics sorted by label. *)

val detect_regions : threshold:int -> Image.t -> region list
(** [regions (label ~threshold img)], computed from the foreground runs of
    each row without a label raster: it allocates per run and per
    region, not per pixel (DESIGN.md, "Mark detection over row runs").
    Test oracle: [test_ccl]'s "detect_regions equals regions of label"
    compares it with [label] and [regions], record for record. *)

val equivalent : labelling -> labelling -> bool
(** True when two labellings define the same partition of foreground pixels
    (i.e. equal up to a bijective renaming of labels). *)

val merge_bands :
  width:int -> (labelling * int) list -> labelling
(** [merge_bands ~width bands] reassembles per-band labellings (each paired
    with its first row in the full image) into a labelling of the full image,
    joining components that touch across band boundaries. Bands must be
    contiguous, ordered, and all of width [width]. This is the "merge" stage
    of the scm-parallel CCL. *)
