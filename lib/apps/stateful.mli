(** Streamed strip telemetry exercising the stateful df farm family.

    Each frame's image is cut into horizontal strips whose pixel sums become
    the farm's task list; every {!Skel.Ir.state_mode} has a small
    deterministic compute function so the spec corpus and the conformance
    tests can pin parallel == sequential-oracle equivalence per mode:

    - [bucket] (stateless/accumulator): coarse luminance bucket of a sum;
    - [gain_scale] (readonly): scale by the broadcast gain;
    - [owner_peak] (owner): running per-partition peak;
    - [res_smooth] (resource): serial smoothing of successive sums;
    - [add]: the shared integer fold. *)

val register : ?nstrips:int -> Skel.Funtable.t -> unit
(** Registers [strip_sums] (image -> per-strip pixel sums, [nstrips]
    defaulting to 8), the per-mode compute functions and the [add] fold. *)

val ir : ?frames:int -> ?nworkers:int -> Skel.Ir.state_mode -> Skel.Ir.program
(** [Pipe [strip_sums; Df mode]] over [nworkers] (default 4) workers. *)

val input_value : ?width:int -> ?height:int -> unit -> Skel.Value.t
(** A deterministic gradient image (default 64x64). *)
