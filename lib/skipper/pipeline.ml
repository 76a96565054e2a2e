type compiled = {
  name : string;
  table : Skel.Funtable.t;
  program : Skel.Ir.program;
  graph : Procnet.Graph.t;
  input : Skel.Value.t option;
  signatures : (string * string) list;
  ctx : Passes.ctx;
  stages : (string * Stage.artifact) list;
}

type strategy = Passes.strategy

exception Compile_error = Passes.Pass_error

let error fmt = Printf.ksprintf (fun m -> raise (Compile_error m)) fmt

let stage_outputs passes artifacts =
  List.combine (List.map Passes.pass_name passes) artifacts

let find_stage compiled name = List.assoc_opt name compiled.stages

let the_ir stages =
  (* the last Ir artifact is the (possibly normalized) program; extraction's
     input survives the transform pass *)
  match
    List.fold_left
      (fun acc (_, art) ->
        match art with Stage.Ir (p, i) -> Some (p, i) | _ -> acc)
      None stages
  with
  | Some pi -> pi
  | None -> assert false

let the_graph stages =
  match
    List.find_map
      (fun (_, art) -> match art with Stage.Graph g -> Some g | _ -> None)
      stages
  with
  | Some g -> g
  | None -> assert false

let of_stages ~table ~ctx stages =
  let program, input = the_ir stages in
  let signatures =
    match List.assoc_opt "typecheck" stages with
    | Some (Stage.Typed (_, schemes)) -> schemes
    | _ -> []
  in
  {
    name = program.Skel.Ir.name;
    table;
    program;
    graph = the_graph stages;
    input;
    signatures;
    ctx;
    stages;
  }

let compile_source ?(frames = 1) ?(optimize = false) ?df_state ?cache ~table
    src =
  let ctx = Passes.make_ctx ?cache ~frames ~optimize ?df_state table in
  let artifacts = Passes.run_trace ctx Passes.frontend (Stage.Source src) in
  of_stages ~table ~ctx (stage_outputs Passes.frontend artifacts)

let compile_ir ?(optimize = false) ?df_state ?cache ~table program =
  (match Skel.Ir.validate table program with
  | Ok () -> ()
  | Error msg -> error "invalid program %s: %s" program.Skel.Ir.name msg);
  let ctx =
    Passes.make_ctx ?cache ~frames:program.Skel.Ir.frames ~optimize ?df_state
      table
  in
  let passes = [ Passes.transform; Passes.expand ] in
  let artifacts = Passes.run_trace ctx passes (Stage.Ir (program, None)) in
  of_stages ~table ~ctx (stage_outputs passes artifacts)

let emulate compiled input = Skel.Sem.run compiled.table compiled.program input

let default_cost _compiled = Syndex.Cost.make ()

let map ?(strategy = "canonical") ?cost compiled arch =
  let ctx = Passes.retarget ?cost ~strategy compiled.ctx arch in
  match
    Passes.run ctx [ Passes.cost; Passes.map ] (Stage.Graph compiled.graph)
  with
  | Stage.Schedule s -> s
  | _ -> assert false

let resolve_input compiled input =
  match (input, compiled.input) with
  | Some v, _ -> v
  | None, Some v -> v
  | None, None ->
      error "program %s needs an explicit input value" compiled.name

let execute_with_schedule ?(trace = false) ?input_period ?faults ?restores
    ?link_faults ?recovery ?checkpoint_every ?(strategy = "canonical") ?cost
    ?input compiled arch =
  let input = resolve_input compiled input in
  let ctx =
    Passes.retarget ?cost ~input ?input_period ~trace ?faults ?restores
      ?link_faults ?recovery ?checkpoint_every ~strategy compiled.ctx arch
  in
  match
    Passes.run_trace ctx
      [ Passes.cost; Passes.map; Passes.simulate ]
      (Stage.Graph compiled.graph)
  with
  | [ _; Stage.Schedule s; Stage.Result r ] -> (s, r)
  | _ -> assert false

let execute ?trace ?input_period ?faults ?restores ?link_faults ?recovery
    ?checkpoint_every ?strategy ?cost ?input compiled arch =
  snd
    (execute_with_schedule ?trace ?input_period ?faults ?restores ?link_faults
       ?recovery ?checkpoint_every ?strategy ?cost ?input compiled arch)

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

let macro_code compiled schedule =
  let ctx =
    Passes.retarget ~strategy:"canonical" compiled.ctx
      schedule.Syndex.Schedule.arch
  in
  match Passes.run_pass ctx Passes.emit (Stage.Schedule schedule) with
  | Stage.Macro m -> m
  | _ -> assert false

let reports compiled = Passes.reports compiled.ctx

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
let timings_json compiled = Stage.reports_to_json (reports compiled)

let dump_stage ?arch ?(strategy = "canonical") ?cost ?input compiled name =
  match find_stage compiled name with
  | Some art -> Ok (Stage.render art)
  | None -> (
      match (Passes.find name, arch) with
      | None, _ ->
          Error
            (Printf.sprintf "unknown stage %S (stages: %s)" name
               (String.concat ", " Passes.names))
      | Some _, None ->
          Error
            (Printf.sprintf
               "stage %s needs a target architecture (it was not run at \
                compile time)"
               name)
      | Some _, Some arch -> (
          let chain =
            match name with
            | "cost" -> [ Passes.cost ]
            | "map" -> [ Passes.cost; Passes.map ]
            | "emit" -> [ Passes.cost; Passes.map; Passes.emit ]
            | "simulate" -> [ Passes.cost; Passes.map; Passes.simulate ]
            | _ -> []
          in
          match chain with
          | [] ->
              Error
                (Printf.sprintf
                   "stage %s was not run for this program (front-end stages \
                    are only recorded when compiling from source)"
                   name)
          | chain -> (
              let input =
                match name with
                | "simulate" -> Some (resolve_input compiled input)
                | _ -> input
              in
              let ctx =
                Passes.retarget ?cost ?input ~strategy compiled.ctx arch
              in
              match Passes.run ctx chain (Stage.Graph compiled.graph) with
              | art -> Ok (Stage.render art)
              | exception Compile_error msg -> Error msg)))

let graph_dot compiled = Procnet.Graph.to_dot compiled.graph

let pp_signatures ppf compiled =
  List.iter
    (fun (name, scheme) -> Format.fprintf ppf "val %s : %s@." name scheme)
    compiled.signatures
