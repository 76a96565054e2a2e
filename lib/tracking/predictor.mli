(** Predict-then-verify tracking (paper §4, second part).

    The englobing frames of marks detected at iteration [i] predict the
    windows of interest for iteration [i+1]. The paper uses a 3D model of
    each vehicle trajectory with rigidity criteria; our substitution is an
    image-plane rigid-translation model with constant-velocity prediction
    and a proximity rigidity check (three marks of a vehicle stay within a
    bounded pattern radius), which exercises the same control flow:
    successful prediction keeps the [df] workload small and uneven, while a
    failed prediction (fewer than three marks) falls back to dividing the
    whole image into [n] windows. *)

val cluster : Mark.t list -> Mark.t list list
(** Greedy spatial clustering of detected marks into vehicle candidates of
    at most three marks each; deterministic. *)

val update : Track_state.t -> Mark.t list -> Track_state.t
(** [update state marks] associates mark clusters with previous tracks,
    estimates velocities, and produces the next state: [Tracking] mode with
    predicted tracks when at least one full (3-mark) vehicle was seen,
    [Reinit] otherwise. The frame counter advances. *)

val windows_for :
  nproc:int -> width:int -> height:int -> Track_state.t -> Vision.Window.t list
(** Windows of interest for the current state: per-mark prediction windows
    in [Tracking] mode (3 per vehicle, sized from each mark's frame), or
    [nproc] full-image tiles in [Reinit] mode. All windows are clipped. *)
