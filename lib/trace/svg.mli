(** Standalone SVG Gantt rendering of a timeline.

    One horizontal lane per (track, lane) pair — for a simulated run that
    means one row per process grouped under its processor — with spans drawn
    as category-coloured bars, instants as ticks, and message flows as
    arrows from the sending lane at departure time to the receiving lane at
    consumption time. It draws what a run did; the ASCII
    {!Syndex.Schedule.gantt} ([--dump-stage map]) draws what the static
    schedule predicted.

    Two overlay families can be drawn on the same lanes:

    - [predicted]: the static schedule's op/comm slots as dashed grey ghost
      bars behind the measured spans, so slippage shows up as a measured
      bar sliding off its ghost;
    - [critical]: the measured critical path as gold outlines drawn on top
      of the spans they bound.

    A third, lane-independent overlay marks time ranges: [bands] draws
    full-height translucent rectangles (SLO violation episodes from
    {!Series.Slo.bands}) behind every lane's bars. *)

type overlay_bar = {
  bar_lane : Event.lane;
      (** row to draw on; gets a row even if no measured event landed there *)
  bar_label : string;
  bar_start : float;  (** seconds *)
  bar_finish : float;
}

type band = {
  band_label : string;
  band_start : float;  (** seconds *)
  band_finish : float;
}

val gantt :
  ?predicted:overlay_bar list ->
  ?critical:overlay_bar list ->
  ?bands:band list ->
  Event.timeline ->
  (string, string) result
(** Renders the timeline; [Error] with an explanatory message when the
    timeline holds no events (typically: tracing was not enabled on the
    machine). The image is 960 pixels wide.
    With no overlay the output is byte-identical to the overlay-free
    renderer. *)
