(** Road following by white-line detection (paper ref [6], Ginhac's thesis).

    Stream application: each frame of a synthetic forward-looking road view
    is scanned for the bright lane lines. The image is split into horizontal
    strips ([scm]); each strip reports the detected line abscissas per row;
    the merge stage fits a linear lane model (least squares over the centre
    line points) whose parameters are both displayed and fed back as the
    [itermem] state to seed the next frame's search window. *)

type lane = {
  offset : float;  (** centre-line abscissa at the bottom row, pixels *)
  slope : float;  (** pixels of drift per image row *)
  confidence : float;  (** fraction of rows where a line point was found *)
}

val lane_to_value : lane -> Skel.Value.t
val lane_of_value : Skel.Value.t -> lane

val detect_rows : Vision.Image.t -> y0:int -> (int * float) list
(** [(absolute_row, centre_x)] for rows where a plausible centre-line point
    (pixels at 230 or brighter) was found in a strip whose first row is
    [y0].

    Test oracle: [test_apps]'s "detect rows" checks it on a drawn strip;
    the registered row-detection function runs it. *)

val fit : width:int -> height:int -> (int * float) list -> lane
(** Least-squares line fit through the points; falls back to the image
    centre with zero confidence when fewer than 2 points exist. *)

val register : width:int -> height:int -> Skel.Funtable.t -> unit
(** Registers [road_input], [road_split], [road_strip], [road_fit] (the scm
    merge that also pairs the lane with the state) and [road_output]. *)

val ir : ?frames:int -> nstrips:int -> unit -> Skel.Ir.program
val input_value : width:int -> height:int -> Skel.Value.t
