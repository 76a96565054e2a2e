type compiled = {
  name : string;
  table : Skel.Funtable.t;
  program : Skel.Ir.program;
  graph : Procnet.Graph.t;
  input : Skel.Value.t option;
  signatures : (string * string) list;
  log : Passes.log;
  stages : (string * Stage.artifact) list;
  mutable problems : (Archi.t * Syndex.Cost.t * Syndex.Mapper.problem) list;
}

type strategy = Passes.strategy

exception Compile_error = Passes.Pass_error

let error fmt = Printf.ksprintf (fun m -> raise (Compile_error m)) fmt
let lift = function Ok v -> v | Error msg -> error "%s" msg

(* ------------------------------------------------------------------ *)
(* Front end: parse -> typecheck -> extract -> transform -> expand     *)

(* How the memoized stages' outputs go into a cache entry and back out. *)
let ir_artifact (program, input) = Stage.Ir (program, input)
let ir_of = function Stage.Ir (p, i) -> Some (p, i) | _ -> None

(* The --df-state override rewrites every farm's declared mode before
   normalisation; the program's init must already have the target mode's
   shape (validate reports otherwise). *)
let transform ~table ~optimize ~df_state (prog, input) =
  let prog, restate =
    match df_state with
    | None -> (prog, "")
    | Some mode ->
        let name = Skel.Ir.state_mode_name mode in
        let prog =
          {
            prog with
            Skel.Ir.body = Skel.Ir.with_state_mode mode prog.Skel.Ir.body;
          }
        in
        (match Skel.Ir.validate table prog with
        | Ok () -> ()
        | Error msg -> error "df-state %s: %s" name msg);
        (prog, "df-state=" ^ name)
  in
  if not optimize then
    ((prog, input), if restate = "" then "disabled" else restate)
  else
    let prog', applied = Skel.Transform.normalize table prog in
    let summary = Skel.Transform.applied_summary applied in
    ((prog', input), if restate = "" then summary else restate ^ "; " ^ summary)

(* The stages both entries share — transform, then expand — and the
   compiled value; [stages] holds the earlier stages' artifacts. *)
let finish log ~table ~optimize ~df_state ~signatures ~stages ir =
  let mode =
    match df_state with None -> "-" | Some m -> Skel.Ir.state_mode_name m
  in
  let ((program, input) as transformed) =
    Passes.stage log "transform" ir_artifact
      ~memo:(Printf.sprintf "%b/%s" optimize mode, ir_of)
      (fun () -> transform ~table ~optimize ~df_state ir)
  in
  let graph =
    Passes.stage log "expand"
      (fun g -> Stage.Graph g)
      ~memo:("", function Stage.Graph g -> Some g | _ -> None)
      (fun () ->
        try (Procnet.Expand.expand table program, "")
        with Procnet.Expand.Expansion_error msg -> error "expansion: %s" msg)
  in
  {
    name = program.Skel.Ir.name;
    table;
    program;
    graph;
    input;
    signatures;
    log;
    stages =
      stages
      @ [
          ("transform", ir_artifact transformed); ("expand", Stage.Graph graph);
        ];
    problems = [];
  }

let compile_source ?(frames = 1) ?(optimize = false) ?df_state ?cache ~table
    src =
  let log = Passes.start ?cache table (Stage.Source src) in
  let ast =
    Passes.stage log "parse"
      (fun a -> Stage.Ast a)
      ~memo:("", function Stage.Ast a -> Some a | _ -> None)
      (fun () -> (lift (Minicaml.Stages.parse src), ""))
  in
  let signatures =
    Passes.stage log "typecheck"
      (fun s -> Stage.Typed (ast, s))
      ~memo:("", function Stage.Typed (_, s) -> Some s | _ -> None)
      (fun () -> (lift (Minicaml.Stages.typecheck ast), ""))
  in
  let extracted =
    Passes.stage log "extract" ir_artifact
      ~memo:(string_of_int frames, ir_of)
      (fun () ->
        let ex = lift (Minicaml.Stages.extract ~frames table ast) in
        ((ex.Minicaml.Extract.program, ex.Minicaml.Extract.input), ""))
  in
  finish log ~table ~optimize ~df_state ~signatures
    ~stages:
      [
        ("parse", Stage.Ast ast);
        ("typecheck", Stage.Typed (ast, signatures));
        ("extract", ir_artifact extracted);
      ]
    extracted

let compile_ir ?(optimize = false) ~table program =
  (match Skel.Ir.validate table program with
  | Ok () -> ()
  | Error msg -> error "invalid program %s: %s" program.Skel.Ir.name msg);
  let log = Passes.start table (ir_artifact (program, None)) in
  finish log ~table ~optimize ~df_state:None ~signatures:[] ~stages:[]
    (program, None)

let emulate compiled input = Skel.Sem.run compiled.table compiled.program input

(* ------------------------------------------------------------------ *)
(* Back end: cost -> map -> emit | simulate, run per target            *)

(* Strategy lookup against the mapper list: the single source of truth
   for valid names (CLI help and this error message both derive from it). *)
let mapper_of strategy =
  match Syndex.Mapper.find strategy with
  | Some m -> m
  | None ->
      error "unknown mapping strategy %S (expected one of %s)" strategy
        (String.concat ", " (Syndex.Mapper.names ()))

(* One value, so that every map under the default model finds the same
   problem *)
let default_cost = Syndex.Cost.make ()

let cost_model ?cost compiled =
  Passes.stage compiled.log "cost"
    (fun m -> Stage.Costed (compiled.graph, m))
    (fun () ->
      match cost with
      | Some c -> (c, "user model")
      | None -> (default_cost, "default model"))

(* The compiled value's mapping problem for this architecture value and
   cost model, built by the first map that needs it *)
let problem compiled model arch =
  match
    List.find_opt (fun (a, m, _) -> a == arch && m == model) compiled.problems
  with
  | Some (_, _, p) -> p
  | None ->
      let p = Syndex.Mapper.problem model arch compiled.graph in
      compiled.problems <- (arch, model, p) :: compiled.problems;
      p

let map ?(strategy = "canonical") ?cost compiled arch =
  let model = cost_model ?cost compiled in
  Passes.stage compiled.log "map"
    (fun s -> Stage.Schedule s)
    (fun () ->
      let mapper = mapper_of strategy in
      (mapper.Syndex.Mapper.map (problem compiled model arch), Archi.name arch))

let frontier ~strategy compiled arch =
  Syndex.Mapper.frontier (mapper_of strategy)
    (problem compiled default_cost arch)

let resolve_input compiled input =
  match (input, compiled.input) with
  | Some v, _ -> v
  | None, Some v -> v
  | None, None ->
      error "program %s needs an explicit input value" compiled.name

let simulate ?trace ?input_period ?faults ?restores ?link_faults ?recovery
    ?checkpoint_every compiled (s : Syndex.Schedule.t) input =
  Passes.stage compiled.log "simulate"
    (fun r -> Stage.Result r)
    (fun () ->
      let r =
        Executive.run ?trace ?input_period ?faults ?restores ?link_faults
          ?recovery ?checkpoint_every ~table:compiled.table ~arch:s.arch
          ~placement:s.placement ~graph:s.graph
          ~frames:compiled.program.Skel.Ir.frames ~input ()
      in
      ( r,
        match r.Executive.outcome with
        | Executive.Completed -> ""
        | Executive.Stalled { collected; expected } ->
            Printf.sprintf "stalled at %d/%d" collected expected ))

let execute_with_schedule ?trace ?input_period ?faults ?restores ?link_faults
    ?recovery ?checkpoint_every ?strategy ?cost ?input compiled arch =
  let input = resolve_input compiled input in
  let s = map ?strategy ?cost compiled arch in
  ( s,
    simulate ?trace ?input_period ?faults ?restores ?link_faults ?recovery
      ?checkpoint_every compiled s input )

let execute ?trace ?input_period ?faults ?restores ?link_faults ?recovery
    ?strategy ?input compiled arch =
  snd
    (execute_with_schedule ?trace ?input_period ?faults ?restores ?link_faults
       ?recovery ?strategy ?input compiled arch)

let check_equivalence ?input compiled arch =
  let input = resolve_input compiled input in
  let emulated = emulate compiled input in
  let result = execute ~input compiled arch in
  if Skel.Value.equal emulated result.Executive.value then Ok emulated
  else
    Error
      (Printf.sprintf "emulation and executive disagree:\n  emulated: %s\n  parallel: %s"
         (Skel.Value.to_string emulated)
         (Skel.Value.to_string result.Executive.value))

let macro_code compiled (s : Syndex.Schedule.t) =
  Passes.stage compiled.log "emit"
    (fun m -> Stage.Macro m)
    (fun () ->
      (Executive.Macro.emit s.graph ~placement:s.placement ~arch:s.arch, ""))

(* ------------------------------------------------------------------ *)
(* Reports and dumps                                                   *)

let reports compiled = Passes.reports compiled.log

let timeline ?result ?slo compiled =
  let tl = Skipper_trace.Event.create () in
  Stage.emit_reports tl (reports compiled);
  (match result with
  | Some r ->
      Skipper_trace.Event.append tl (Machine.Sim.timeline r.Executive.sim)
  | None -> ());
  Option.iter (Skipper_trace.Series.Slo.emit tl) slo;
  tl
let pp_timings ppf compiled = Stage.pp_report_table ppf (reports compiled)

let stage_names =
  [
    "parse"; "typecheck"; "extract"; "transform"; "expand"; "cost"; "map";
    "emit"; "simulate";
  ]

let dump_stage ?arch ?(strategy = "canonical") ?input compiled name =
  match (List.assoc_opt name compiled.stages, arch) with
  | Some art, _ -> Ok (Stage.render art)
  | None, _ when not (List.mem name stage_names) ->
      Error
        (Printf.sprintf "unknown stage %S (stages: %s)" name
           (String.concat ", " stage_names))
  | None, None ->
      Error
        (Printf.sprintf
           "stage %s needs a target architecture (it was not run at compile \
            time)"
           name)
  | None, Some arch -> (
      (* A back-end stage is re-run against [arch], after the stages it
         consumes. *)
      let map () = map ~strategy compiled arch in
      let work =
        match name with
        | "cost" ->
            Some
              (fun () ->
                Stage.Costed (compiled.graph, cost_model compiled))
        | "map" -> Some (fun () -> Stage.Schedule (map ()))
        | "emit" -> Some (fun () -> Stage.Macro (macro_code compiled (map ())))
        | "simulate" ->
            Some
              (fun () ->
                let input = resolve_input compiled input in
                Stage.Result (simulate compiled (map ()) input))
        | _ -> None
      in
      match work with
      | None ->
          Error
            (Printf.sprintf
               "stage %s was not run for this program (front-end stages are \
                only recorded when compiling from source)"
               name)
      | Some work -> (
          match work () with
          | art -> Ok (Stage.render art)
          | exception Compile_error msg -> Error msg))

let graph_dot compiled = Procnet.Graph.to_dot compiled.graph

let pp_signatures ppf compiled =
  List.iter
    (fun (name, scheme) -> Format.fprintf ppf "val %s : %s@." name scheme)
    compiled.signatures
