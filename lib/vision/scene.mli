(** Synthetic scene generation.

    The paper's testbench is a camera in a car filming one to three lead
    vehicles, each carrying three bright visual marks. We have no camera, so
    this module synthesises that scene: vehicles follow smooth trajectories
    in the image plane with an apparent scale that varies with distance, and
    each renders as a dark body with three bright circular marks (two on top,
    one at the back, as in the paper's Fig. 3). Frames are deterministic
    functions of [(params, frame_index)]. *)

type vehicle = {
  cx : float;  (** body centre, x, pixels *)
  cy : float;
  scale : float;  (** apparent size factor; 1.0 ~ 60 px wide body *)
  visible : bool;  (** false while occluded *)
}

type params = {
  width : int;
  height : int;
  nvehicles : int;  (** 1 to 3 *)
  seed : int;
  noise : float;
      (** std-dev of additive Gaussian pixel noise, in levels; at most 1024,
          and [<= 0] for none *)
  occlusion_period : int;
      (** if > 0, vehicle 0 disappears for a few frames every that many
          frames, forcing the tracker's reinitialisation path *)
}

val default_params : params
(** 512x512, 2 vehicles, seed 42, mild noise, no occlusions. *)

val vehicles_at : params -> int -> vehicle list
(** [vehicles_at p t] is the ground-truth vehicle state at frame [t].
    Test oracle: [test_scene]'s per-pixel reference renderer draws from it
    ("row-wise frame equals the per-pixel reference"). *)

val mark_centers : vehicle -> (float * float) list
(** The three mark centres for a vehicle (empty when not visible).
    Test oracle: [test_scene]'s per-pixel reference renderer draws with it
    ("row-wise frame equals the per-pixel reference"). *)

val mark_radius : vehicle -> int
(** Rendered mark radius in pixels (scales with apparent size).
    Test oracle: [test_scene]'s per-pixel reference renderer draws with it
    ("row-wise frame equals the per-pixel reference"). *)

val frame : params -> int -> Image.t
(** [frame p t] renders frame [t]: road background, vehicle bodies, bright
    marks, then additive noise. Mark pixels are >= 220; everything else stays
    below 180, so thresholding at 200 isolates marks, whatever the noise.
    The noise moves [w h / 5] pixels (with repeats) by
    [Prng.Trunc_normal.draw] at level [p.noise], clamped to their class. A
    pixel's x is [(u w) >> 32] for a uniform 32-bit [u] (y likewise with
    [h]): uniform when [w] is a power of two, and otherwise off by at most a
    relative [w 2{^-32}] per column. No libm function decides a noise byte.
    Precondition: [t >= 0]; raises [Invalid_argument] otherwise, and when
    [p.noise] exceeds 1024. *)

val road_frame : width:int -> height:int -> int -> Image.t
(** Synthetic road view for the road-following application: dark asphalt,
    bright solid side lines and a dashed centre line; frame [t] curves with
    the phase 0.0005 t². *)

val ground_truth_marks : params -> int -> (float * float) list
(** All visible mark centres at a frame, in vehicle order.
    Test oracle: [test_scene]'s "detection matches truth" and
    [test_tracking]'s "finds marks" compare detected marks with it. *)
