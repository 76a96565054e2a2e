(** Tracker memory: the [state] value threaded through [itermem].

    Holds, per tracked vehicle, the three predicted mark positions and the
    estimated image-plane velocity; plus the current mode (normal tracking
    or reinitialisation) and frame counter. *)

type track = {
  marks : Mark.t list;  (** exactly 3 when the track is locked *)
  vx : float;  (** centroid velocity, pixels/frame *)
  vy : float;
}

type mode = Tracking | Reinit

type t = {
  mode : mode;
  tracks : track list;
  frame : int;
}

val initial : t
(** Reinitialisation mode, no tracks, frame 0. *)

val centroid : track -> float * float

val to_value : t -> Skel.Value.t
val of_value : Skel.Value.t -> t
val equal : t -> t -> bool
