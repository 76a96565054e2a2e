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

val register : Skel.Funtable.t -> unit
(** Registers [strip_sums] (image -> the pixel sums of 8 strips), the
    per-mode compute functions and the [add] fold. *)

val input_value : unit -> Skel.Value.t
(** A deterministic 64x64 gradient image. *)
