(** Typed stage artifacts and per-stage instrumentation records.

    The Fig. 2 toolchain is a sequence of distinct stages, which
    {!Pipeline} calls in order. Each stage's output has an {!artifact} form:
    what the front-end memo cache ({!Passes}) stores, what a stage dump
    renders, and what sizes the stage's {!report} — wall time, an
    artifact-size metric (IR nodes, graph processes/channels, schedule
    slots, ...) and whether the result came from the memoization cache.
    Reports print as a table ([skipperc --timings], bench E9) or dump as
    JSON. *)

type artifact =
  | Source of string  (** raw specification text *)
  | Ast of Minicaml.Ast.program  (** parsed, untyped *)
  | Typed of Minicaml.Ast.program * (string * string) list
      (** the same AST plus the inferred top-level schemes *)
  | Ir of Skel.Ir.program * Skel.Value.t option
      (** skeletal program + the input value when the source fixes one;
          produced by extraction and again (rewritten) by the transform
          pass *)
  | Graph of Procnet.Graph.t  (** expanded process network *)
  | Costed of Procnet.Graph.t * Syndex.Cost.t
      (** the network paired with the cost model the mapper will use *)
  | Schedule of Syndex.Schedule.t  (** adequation result *)
  | Macro of string  (** emitted m4 macro-code *)
  | Result of Executive.result  (** a finished simulated run *)

val size : artifact -> int * string
(** A size metric for the artifact with its unit label, e.g.
    [(34, "procs+chans")] for a graph, [(12, "ir nodes")] for a program. *)

val fingerprint : artifact -> string
(** Content digest of the artifact, used to seed the memoization key chain.
    Only [Source] and [Ir] (the two pipeline entry artifacts) need to be
    cheap; the rest digest a rendering. *)

val render : artifact -> string
(** Human-readable dump of the artifact ([skipperc --dump-stage]): pretty
    AST, type schemes, IR, DOT graph, per-node cost table, schedule summary
    + Gantt, macro-code, or run digest. *)

type report = {
  pass : string;  (** pass name *)
  start : float;  (** absolute wall-clock time the pass began, seconds *)
  wall : float;  (** wall-clock seconds spent in the pass *)
  size : int;  (** artifact size metric (see {!size}) *)
  metric : string;  (** unit label of [size] *)
  cached : bool;  (** true when the artifact came from the cache *)
  detail : string;  (** pass-specific note (rules applied, ...); may be empty *)
}

val emit_reports :
  ?t0:float -> Skipper_trace.Event.timeline -> report list -> unit
(** Append one span per report to the timeline's compile lane, with times
    re-based to [t0] (default: the first report's [start]) — this is how the
    stage instrumentation lands on the same timeline as the simulator's
    events ([skipperc --trace-out]). *)

val pp_report_table : Format.formatter -> report list -> unit
(** Fixed-width table, one row per pass, in pipeline order. *)

val reports_to_json : report list -> string
(** JSON array of objects with the {!report} fields.
    Test oracle: [test_determinism]'s "golden-bytes Stage.reports_to_json"
    and "golden-fields stage report" pin its bytes and keys, and
    [test_passes]'s "timings render" renders a compile's reports with it. *)
