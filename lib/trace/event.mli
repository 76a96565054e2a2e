(** Structured trace events shared by the whole toolchain.

    One {!timeline} holds everything a run produced: compile-stage spans
    from the toolchain's stage reports, and process activity and message
    lifecycles from the machine simulator. Exporters ({!Chrome}, {!Svg})
    render a timeline without knowing who emitted into it.

    Events are attributed to a {!lane}: a [track] groups lanes the way a
    Chrome-trace "process" groups threads (one track per simulated
    processor, one for the toolchain, one for the environment, one for the
    links), and the [index] distinguishes lanes within the track (one lane
    per simulated process). Track numbering is fixed so exports are
    deterministic: {!compile_track} = 0, {!env_track} = 1,
    {!links_track} = 2, processors at [3 + p]. *)

type lane = {
  track : int;  (** lane group (Chrome-trace pid) *)
  track_label : string;
  index : int;  (** lane within the track (Chrome-trace tid) *)
  label : string;
}

type arg = Str of string | Num of float | Count of int
(** Typed event argument (rendered into the exporter's metadata). *)

type kind =
  | Span of float  (** an activity with a duration, seconds *)
  | Instant
  | Flow_start of int  (** message departure; the int ties start to end *)
  | Flow_end of int  (** message consumption, same flow id as its start *)

type t = {
  time : float;  (** seconds from the timeline origin *)
  name : string;
  cat : string;  (** category: "compute", "send", "link", "stage", ... *)
  lane : lane;
  args : (string * arg) list;
  kind : kind;
}

(** {1 Timelines} *)

type timeline

val create : unit -> timeline

val add : timeline -> t -> unit

val append : timeline -> timeline -> unit
(** [append tl src] adds every event of [src] to [tl], in order; [src] is
    left unchanged. *)

val length : timeline -> int

val events : timeline -> t list
(** In emission order. *)

val by_time : timeline -> t list
(** Stable-sorted by [time] (emission order breaks ties), so exports are
    deterministic even when producers emit out of order (link hops are
    recorded at reservation time). *)

(** {1 Emission helpers} *)

val span :
  timeline ->
  lane:lane ->
  cat:string ->
  ?args:(string * arg) list ->
  name:string ->
  time:float ->
  dur:float ->
  unit ->
  unit

val instant :
  timeline ->
  lane:lane ->
  cat:string ->
  ?args:(string * arg) list ->
  name:string ->
  time:float ->
  unit ->
  unit

val flow_start :
  timeline ->
  lane:lane ->
  cat:string ->
  ?name:string ->
  flow:int ->
  time:float ->
  unit ->
  unit

val flow_end :
  timeline ->
  lane:lane ->
  cat:string ->
  ?name:string ->
  flow:int ->
  time:float ->
  unit ->
  unit

(** {1 Lane conventions} *)

val compile_track : int
val env_track : int
val links_track : int

val processor_track : int -> int
(** [processor_track p = 3 + p]. *)

val pool_track : int
(** The domain pool's track, far above every processor track. *)

val compile_lane : lane
(** The toolchain's single lane (pass-manager stage spans). *)

val env_lane : lane
(** External stimuli (injected inputs). *)

val link_lane : src:int -> dst:int -> nprocs:int -> lane
(** One lane per directed link, labelled ["Pa->Pb"]. *)

val processor_lane : proc:int -> pid:int -> name:string -> lane
(** One lane per simulated process, grouped under its processor's track. *)

val cpu_lane : int -> lane
(** Processor-level events not tied to a process (faults). *)

val slo_lane : index:int -> label:string -> lane
(** One lane per SLO declaration, carrying its state-transition instants
    (see {!Series.Slo.emit}); [label] is the declaration as written. *)

val pool_lane : int -> lane
(** One lane per {!Support.Domain_pool} worker, on {!pool_track} — a
    parallel sweep gets a Gantt lane per domain (see {!Pool}). *)
