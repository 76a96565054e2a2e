(** Connected-component labelling with the scm skeleton.

    The companion application of Ginhac et al. (MVA'98, paper ref [7]):
    the image is split into horizontal bands, each band is labelled
    independently (the "geometric" data parallelism scm encapsulates), and
    the merge stage joins components that touch across band seams.

    Band labellings travel between processes as packed binary strings
    (4 bytes per pixel), so communication costs reflect the real data
    volume. *)

val encode_labelling : Vision.Ccl.labelling -> Skel.Value.t
val decode_labelling : Skel.Value.t -> Vision.Ccl.labelling
(** Raises [Skel.Value.Type_error] on malformed encodings.

    Test oracle: [test_apps]'s "labelling roundtrip" and "decode rejects
    corrupt" check the wire format the band functions use. *)

val register : Skel.Funtable.t -> unit
(** Registers [ccl_split] (arity 2: nparts, image), [ccl_band] (labels one
    band item at threshold 128, costed at 30 cycles per pixel) and
    [ccl_merge] (joins band labellings and summarises regions). *)

val ir : nparts:int -> Skel.Ir.program
(** [scm nparts ccl_split ccl_band ccl_merge] as a one-shot program. *)

val source : nparts:int -> string
(** Specification-language version of the program. *)

val blobs_image : ?seed:int -> ?nblobs:int -> int -> int -> Vision.Image.t
(** Synthetic test input: random bright elliptic blobs on a dark background
    (deterministic in the seed). *)

val result_summary : Skel.Value.t -> int * int
(** [(ncomponents, total_foreground_area)] from the merge result. *)
