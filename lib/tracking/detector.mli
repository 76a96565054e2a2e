(** Mark detection inside windows of interest.

    The [detect_mark] stage of §4: threshold the window, label connected
    components, keep plausible mark-sized regions, return their centres of
    gravity and englobing frames in absolute image coordinates. *)

val mark_threshold : int
(** 200: pixels at this level or brighter are mark pixels. *)

val detect : origin:int * int -> Vision.Image.t -> Mark.t list
(** [detect ~origin:(dx, dy) window_pixels] returns the marks found (pixels
    at 200 or brighter, regions of at least 6 pixels), sorted by decreasing
    area. *)

val window_items : Vision.Image.t -> Vision.Window.t list -> Skel.Value.t list
(** Packs windows for the data farm: each item carries the window origin and
    its pixel content (on a distributed-memory machine the master ships the
    pixels, which is what makes the workload uneven). *)

val detect_item : Skel.Value.t -> Skel.Value.t
(** The registered [detect_mark] computation: takes a window item, returns
    the encoded mark list. *)

val item_area : Skel.Value.t -> int
(** Pixel count of a window item (for cost models). *)
