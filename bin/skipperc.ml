(* skipperc: command-line driver for the SKiPPER environment.

   The paper's toolchain is a compiler: it takes the ML specification plus
   the application's sequential C functions and produces either a sequential
   emulation or a distributed executive. Sequential functions here come from
   built-in application function tables selected with --app (the container
   has no C compiler, and the functions are OCaml against the vision
   substrate). Skipper_lib.Pipeline runs the toolchain's stages in order;
   --timings prints the per-stage report and --dump-stage prints one
   stage's artifact. *)

let app_table = function
  | "tracking" -> Tracking.Funcs.table Tracking.Funcs.default_config
  | "ccl" ->
      let t = Skel.Funtable.create () in
      Apps.Ccl_scm.register t;
      t
  | "road" ->
      let t = Skel.Funtable.create () in
      Apps.Road.register ~width:512 ~height:512 t;
      Skel.Funtable.register t "zero_lane" ~arity:0 ~cost:(fun _ -> 1.0) (fun _ ->
          Apps.Road.lane_to_value
            { Apps.Road.offset = 0.0; slope = 0.0; confidence = 0.0 });
      t
  | "quadtree" ->
      let t = Skel.Funtable.create () in
      Apps.Quadtree.register t;
      t
  | "stateful" ->
      let t = Skel.Funtable.create () in
      Apps.Stateful.register t;
      t
  | "none" -> Skel.Funtable.create ()
  | other -> failwith (Printf.sprintf "unknown application %S" other)

let default_input app =
  match app with
  | "ccl" -> Some (Skel.Value.Image (Apps.Ccl_scm.blobs_image 512 512))
  | "quadtree" -> Some (Skel.Value.Image (Apps.Ccl_scm.blobs_image ~nblobs:12 256 256))
  | "stateful" -> Some (Apps.Stateful.input_value ())
  | _ -> None

let topology name n =
  match name with
  | "ring" -> Archi.ring n
  | "chain" -> Archi.chain n
  | "star" -> Archi.star n
  | "full" -> Archi.fully_connected n
  | other -> failwith (Printf.sprintf "unknown topology %S" other)

(* Strategy names resolve against the mapper list — the same single
   source of truth the --strategy/--map-strategy help text lists. *)
let strategy_of name =
  match Syndex.Mapper.find name with
  | Some m -> m.Syndex.Mapper.name
  | None ->
      failwith
        (Printf.sprintf "unknown mapping strategy %S (valid strategies: %s)"
           name
           (String.concat ", " (Syndex.Mapper.names ())))

(* Fault-plan flag parsing. Times on the command line are milliseconds;
   the simulator runs in seconds. *)

let parse_proc_at flag spec =
  let bad () =
    failwith (Printf.sprintf "--%s: cannot parse %S (expected PROC@MS)" flag spec)
  in
  match String.split_on_char '@' spec with
  | [ p; t ] -> (
      try (int_of_string (String.trim p), float_of_string (String.trim t) /. 1e3)
      with _ -> bad ())
  | _ -> bad ()

let parse_link flag = function
  | "*" -> None
  | s -> (
      match String.split_on_char '-' s with
      | [ a; b ] -> (
          try Some (int_of_string a, int_of_string b)
          with _ ->
            failwith
              (Printf.sprintf "--%s: bad link %S (expected SRC-DST or *)" flag s))
      | _ ->
          failwith
            (Printf.sprintf "--%s: bad link %S (expected SRC-DST or *)" flag s))

let parse_filter flag s =
  let bad () =
    failwith
      (Printf.sprintf
         "--%s: bad filter %S (expected all, nth=K, every=K or p=P,seed=S)" flag
         s)
  in
  try
    match String.split_on_char '=' s with
    | [ "all" ] -> Machine.Sim.Always
    | [ "nth"; k ] -> Machine.Sim.Nth (int_of_string k)
    | [ "every"; k ] -> Machine.Sim.Every (int_of_string k)
    | [ "p"; spec ] -> (
        match String.split_on_char ',' spec with
        | [ p ] -> Machine.Sim.Prob (float_of_string p, 0)
        | [ p; seed ] ->
            let seed =
              match String.split_on_char '=' seed with
              | [ "seed"; s ] | [ s ] -> int_of_string s
              | _ -> raise Exit
            in
            Machine.Sim.Prob (float_of_string p, seed)
        | _ -> raise Exit)
    | _ -> raise Exit
  with _ -> bad ()

(* --drop-link / --dup-link take LINK[:FILTER]; --delay-link takes
   LINK:MS[:FILTER]. *)
let parse_link_fault flag ~delay spec =
  let bad () =
    let shape = if delay then "LINK:MS[:FILTER]" else "LINK[:FILTER]" in
    failwith (Printf.sprintf "--%s: cannot parse %S (expected %s)" flag spec shape)
  in
  let mk ?schedule link action =
    Machine.Sim.link_fault ?link ?schedule action
  in
  match (delay, String.split_on_char ':' spec) with
  | false, [ l ] -> mk (parse_link flag l) Machine.Sim.Drop
  | false, [ l; f ] ->
      mk ~schedule:(parse_filter flag f) (parse_link flag l) Machine.Sim.Drop
  | true, [ l; ms ] -> (
      try mk (parse_link flag l) (Machine.Sim.Delay (float_of_string ms /. 1e3))
      with Failure _ -> bad ())
  | true, [ l; ms; f ] -> (
      try
        mk ~schedule:(parse_filter flag f) (parse_link flag l)
          (Machine.Sim.Delay (float_of_string ms /. 1e3))
      with Failure _ -> bad ())
  | _ -> bad ()

let dup_of_drop lf = { lf with Machine.Sim.action = Machine.Sim.Duplicate }

let fault_plan ~halts ~restores ~drops ~delays ~dups ~df_timeout =
  let faults = List.map (parse_proc_at "halt") halts in
  let restores = List.map (parse_proc_at "restore") restores in
  let link_faults =
    List.map (parse_link_fault "drop-link" ~delay:false) drops
    @ List.map (parse_link_fault "delay-link" ~delay:true) delays
    @ List.map
        (fun s -> dup_of_drop (parse_link_fault "dup-link" ~delay:false s))
        dups
  in
  let recovery = Option.map (fun ms -> Executive.recovery (ms /. 1e3)) df_timeout in
  (faults, restores, link_faults, recovery)

let outcome_lines (r : Executive.result) =
  let b = Buffer.create 64 in
  (match r.Executive.outcome with
  | Executive.Completed -> ()
  | Executive.Stalled { collected; expected } ->
      Buffer.add_string b
        (Printf.sprintf "outcome: STALLED after %d of %d outputs\n" collected
           expected));
  let tally = Machine.Sim.fault_tally r.Executive.sim in
  if
    tally.Machine.Sim.dropped + tally.Machine.Sim.delayed
    + tally.Machine.Sim.duplicated + r.Executive.reissues
    + r.Executive.retired_workers + r.Executive.deadline_misses
    > 0
  then
    Buffer.add_string b
      (Printf.sprintf
         "faults: %d dropped, %d delayed, %d duplicated messages; %d reissues, \
          %d retired workers, %d deadline misses\n"
         tally.Machine.Sim.dropped tally.Machine.Sim.delayed
         tally.Machine.Sim.duplicated r.Executive.reissues
         r.Executive.retired_workers r.Executive.deadline_misses);
  if r.Executive.checkpoints > 0 || r.Executive.replayed_frames > 0 then
    Buffer.add_string b
      (Printf.sprintf "checkpoints: %d taken, %d frames replayed\n"
         r.Executive.checkpoints r.Executive.replayed_frames);
  Buffer.contents b

let print_outcome r = print_string (outcome_lines r)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Render the run's telemetry as (path, content, log line) triples. The
   Chrome trace carries the whole toolchain (compile-stage spans + the
   simulated run); the SVG Gantt shows the run alone — compile passes live
   on a microsecond scale that would flatten the millisecond-scale
   simulation lanes into invisibility. With [schedule]/[report] the Gantt
   gains the predicted ghost bars and the measured critical path. Pure
   (no writes), so farmed sweep jobs can render and let the main domain
   write. *)
let render_traces ?compiled ?schedule ?report ?slo ~trace_out ~gantt_svg
    (r : Executive.result) =
  let chrome path =
    let tl =
      match compiled with
      | Some c -> Skipper_lib.Pipeline.timeline ~result:r ?slo c
      | None -> Executive.timeline ?slo r
    in
    ( path,
      Skipper_trace.Chrome.to_json tl,
      Printf.sprintf "skipperc: wrote Chrome trace (%d events) to %s"
        (Skipper_trace.Event.length tl)
        path )
  in
  let svg path =
    let predicted =
      Option.map Skipper_trace.Conformance.predicted_overlay schedule
    in
    let critical =
      Option.map Skipper_trace.Conformance.critical_overlay report
    in
    let bands = Option.map Skipper_trace.Series.Slo.bands slo in
    match
      Skipper_trace.Svg.gantt ?predicted ?critical ?bands
        (Executive.timeline r)
    with
    | Ok svg ->
        (path, svg, Printf.sprintf "skipperc: wrote timeline SVG to %s" path)
    | Error msg -> failwith msg
  in
  Option.to_list (Option.map chrome trace_out)
  @ Option.to_list (Option.map svg gantt_svg)

(* Write rendered (path, content, log line) artifacts, logging each one. *)
let write_artifacts =
  List.iter (fun (path, content, log) ->
      write_file path content;
      Printf.eprintf "%s\n" log)

(* Windowed-series telemetry: build the series from the run, evaluate the
   SLO specs against it, and render the requested export files (format by
   extension). Pure, so farmed sweep jobs render and the main domain prints
   and writes. *)
let series_files ~series_out ~slo_specs ~series_window (r : Executive.result) =
  if series_out = [] && slo_specs = [] then (None, [])
  else begin
    let width = Option.map (fun ms -> ms /. 1e3) series_window in
    let series =
      match Executive.series ?width r with
      | Ok s -> s
      | Error msg -> failwith msg
    in
    let slo =
      if slo_specs = [] then None
      else Some (Skipper_trace.Series.Slo.evaluate slo_specs series)
    in
    let render path =
      let content =
        match Filename.extension path with
        | ".csv" -> Skipper_trace.Series.to_csv series
        | ".prom" | ".txt" -> Skipper_trace.Series.to_prometheus ?slo series
        | _ -> Skipper_trace.Series.to_json ?slo series
      in
      ( path,
        content,
        Printf.sprintf "skipperc: wrote series (%d windows) to %s"
          (Array.length series.Skipper_trace.Series.windows)
          path )
    in
    (slo, List.map render series_out)
  end

(* "%{procs}" templating for per-variant artifact paths in a sweep. Every
   occurrence expands, so "out/%{procs}/trace-%{procs}.json" works. *)
let subst_procs ~procs path =
  Support.Template.subst ~key:"procs" ~value:(string_of_int procs) path

let has_procs_template path = Support.Template.mem ~key:"procs" path

(* --cache-dir: a persistent content-addressed store for front-end compile
   artifacts, stamped with the artifact format so entries from an
   incompatible build read as misses. *)
let open_cache_store dir =
  Support.Store.open_store ~dir ~stamp:Skipper_lib.Passes.artifact_format ()

let make_cache = function
  | None -> None
  | Some dir ->
      Some (Skipper_lib.Passes.create_cache ~store:(open_cache_store dir) ())

let cache_summary cache =
  let hits, misses = Skipper_lib.Passes.cache_stats cache in
  Printf.sprintf "skipperc: cache: %d hits (%d from store), %d misses" hits
    (Skipper_lib.Passes.store_hits cache)
    misses

let compile ~app ~frames ?(optimize = false) ?df_state ?cache path =
  let table = app_table app in
  Skipper_lib.Pipeline.compile_source ~frames ~optimize ?df_state ?cache ~table
    (read_file path)

let df_state_of = function
  | None -> None
  | Some s -> (
      match Skel.Ir.state_mode_of_string s with
      | Some m -> Some m
      | None ->
          failwith
            (Printf.sprintf "--df-state: unknown mode %S (valid modes: %s)" s
               (String.concat ", " Skel.Ir.state_mode_names)))

let print_timings c = Format.printf "%a" Skipper_lib.Pipeline.pp_timings c

let dump_stage ?arch ?strategy ?input c stage =
  match Skipper_lib.Pipeline.dump_stage ?arch ?strategy ?input c stage with
  | Ok text -> print_string text
  | Error msg -> failwith msg

let wrap f =
  try f (); 0 with
  | Skipper_lib.Pipeline.Compile_error msg | Failure msg ->
      Printf.eprintf "skipperc: %s\n" msg;
      1
  | Executive.Executive_error msg ->
      Printf.eprintf "skipperc: executive: %s\n" msg;
      1

(* ------------------------------------------------------------------ *)

open Cmdliner

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let app_arg =
  Arg.(
    value
    & opt string "none"
    & info [ "app" ] ~docv:"APP"
        ~doc:"Application function table: tracking, ccl, road, quadtree, \
              stateful or none.")

let frames_arg =
  Arg.(value & opt int 1 & info [ "frames" ] ~docv:"N" ~doc:"Stream iterations.")

let procs_arg =
  Arg.(value & opt int 8 & info [ "procs"; "p" ] ~docv:"P" ~doc:"Processor count.")

(* [run] accepts a comma-separated sweep of processor counts; the other
   commands keep the single-count flag above. *)
let procs_list_arg =
  Arg.(
    value
    & opt (list int) [ 8 ]
    & info [ "procs"; "p" ] ~docv:"P[,P...]"
        ~doc:"Processor count, or a comma-separated list to run one variant \
              per count (see --jobs).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Farm the variants of a multi-count --procs sweep over N \
              domains. Each variant compiles and simulates independently and \
              output is printed in sweep order whatever the completion \
              order, so stdout is identical at any N.")

let topo_arg =
  Arg.(
    value
    & opt string "ring"
    & info [ "topology"; "t" ] ~docv:"TOPO" ~doc:"ring, chain, star or full.")

let strategy_arg =
  Arg.(
    value
    & opt string "canonical"
    & info
        [ "strategy"; "s"; "map-strategy" ]
        ~docv:"S"
        ~doc:
          (Printf.sprintf "Mapping strategy: %s."
             (String.concat ", " (Syndex.Mapper.names ()))))

let frontier_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "frontier-out" ] ~docv:"PATH"
        ~doc:
          "Write the selected strategy's latency/throughput trade-off \
           frontier as deterministic JSON (the full Pareto frontier for \
           bicriteria, a single point for single-schedule strategies). In a \
           multi-count --procs sweep the path must carry a %{procs} \
           template.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Persist front-end compile artifacts in a content-addressed \
              store under DIR, shared across skipperc invocations (and with \
              a serve daemon pointed at the same DIR). A second compile of \
              the same source reports every front-end pass as cached. A \
              cache summary line is printed to stderr after compilation.")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "optimize"; "O" ]
        ~doc:"Apply the inter-skeleton transformational rules before expansion.")

let fps_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "fps" ] ~docv:"HZ" ~doc:"Pace the input source at HZ frames per second.")

let timings_arg =
  Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:"Print the per-stage pass-manager report (wall time, artifact \
              size, cache status) after the command.")

let dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-stage" ] ~docv:"STAGE"
        ~doc:"Print the named stage's artifact instead of the normal output \
              (parse, typecheck, extract, transform, expand, cost, map, \
              emit, simulate).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE.json"
        ~doc:"Write a Chrome trace-event JSON of the run (compile stages + \
              full message lifecycle) to FILE.json; load it in Perfetto or \
              chrome://tracing. In a multi-count --procs sweep the path must \
              contain %{procs}, substituted per variant.")

let gantt_svg_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "gantt-svg" ] ~docv:"FILE.svg"
        ~doc:"Write a standalone SVG timeline of the simulated run (one lane \
              per processor and link, message arrows between lanes) to \
              FILE.svg. Includes the predicted schedule as ghost bars, and \
              with --conformance the measured critical path highlighted. In \
              a multi-count --procs sweep the path must contain %{procs}, \
              substituted per variant.")

let series_out_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "series-out" ] ~docv:"FILE"
        ~doc:"Write the run's windowed time-series telemetry to FILE \
              (repeatable; the format follows the extension: .json carries \
              the full series plus any SLO report, .csv one row per window, \
              .prom the Prometheus text exposition). Forces tracing on. In \
              a multi-count --procs sweep each path must contain %{procs}, \
              substituted per variant.")

let slo_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "slo" ] ~docv:"SPEC"
        ~doc:"Evaluate a service-level objective over the windowed series \
              (repeatable), e.g. p99_latency<8ms, miss_rate<0.01 or \
              period<3ms. Prints a violations report after the run, marks \
              state transitions on the Chrome trace and shades violated \
              windows on the Gantt SVG. Forces tracing on.")

let series_window_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "series-window" ] ~docv:"MS"
        ~doc:"Width of the telemetry windows in milliseconds (default: the \
              input period when --fps is given, else 5 ms).")

let conformance_arg =
  Arg.(
    value & flag
    & info [ "conformance" ]
        ~doc:"Profile the run against its static schedule: per-op and \
              per-link slack, measured critical path with contribution \
              shares, and the makespan error. Forces tracing on.")

let halt_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "halt" ] ~docv:"P\\@MS"
        ~doc:"Halt processor P at MS milliseconds (repeatable). The \
              processor's processes never run again and messages addressed \
              to them are dropped.")

let restore_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "restore" ] ~docv:"P\\@MS"
        ~doc:"Restore a halted processor P at MS milliseconds (repeatable).")

let drop_link_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "drop-link" ] ~docv:"SPEC"
        ~doc:"Drop messages on a link (repeatable). SPEC is LINK[:FILTER] \
              with LINK either SRC-DST (processor ids) or * for any link, \
              and FILTER one of all (default), nth=K, every=K or \
              p=P,seed=S.")

let delay_link_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "delay-link" ] ~docv:"SPEC"
        ~doc:"Delay messages on a link (repeatable). SPEC is \
              LINK:MS[:FILTER]; see --drop-link for LINK and FILTER.")

let dup_link_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "dup-link" ] ~docv:"SPEC"
        ~doc:"Duplicate messages on a link (repeatable). SPEC is \
              LINK[:FILTER]; see --drop-link.")

let df_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "df-timeout" ] ~docv:"MS"
        ~doc:"Enable the fault-tolerant df farm: a task outstanding longer \
              than MS milliseconds is reissued to an idle worker, and \
              workers that repeatedly time out are retired.")

let df_state_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "df-state" ] ~docv:"MODE"
        ~doc:
          (Printf.sprintf
             "Override the state-access mode of every df farm: %s. The \
              program's init value must already have the shape the target \
              mode expects (see the documentation of the df_* family)."
             (String.concat ", " Skel.Ir.state_mode_names)))

let checkpoint_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Checkpoint the df master's and itermem memory's state every N \
              frames. Combined with --halt/--restore of their processor, the \
              restored master replays from the last checkpoint instead of \
              stalling the stream.")

let check_cmd =
  let run file =
    wrap (fun () ->
        let src = read_file file in
        match Minicaml.Stages.parse src with
        | Error msg -> failwith msg
        | Ok ast -> (
            match Minicaml.Stages.typecheck ast with
            | Error msg -> failwith msg
            | Ok schemes ->
                List.iter
                  (fun (n, s) -> Printf.printf "val %s : %s\n" n s)
                  schemes))
  in
  Cmd.v (Cmd.info "check" ~doc:"Parse and type-check a specification.")
    Term.(const run $ file_arg)

let graph_cmd =
  let run app frames timings dump file =
    wrap (fun () ->
        let c = compile ~app ~frames file in
        (match dump with
        | Some stage -> dump_stage c stage
        | None -> print_string (Skipper_lib.Pipeline.graph_dot c));
        if timings then print_timings c)
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Print the expanded process network in DOT format.")
    Term.(const run $ app_arg $ frames_arg $ timings_arg $ dump_arg $ file_arg)

let map_cmd =
  let run app frames procs topo strat timings dump file =
    wrap (fun () ->
        let c = compile ~app ~frames file in
        let arch = topology topo procs in
        let strategy = strategy_of strat in
        (match dump with
        | Some stage -> dump_stage ~arch ~strategy c stage
        | None ->
            let sched = Skipper_lib.Pipeline.map ~strategy c arch in
            Format.printf "%a@." Syndex.Schedule.pp_summary sched;
            (match Syndex.Schedule.validate sched with
            | Ok () -> print_endline "schedule: valid"
            | Error m -> Printf.printf "schedule: INVALID (%s)\n" m);
            Printf.printf "deadlock-free: %b\n" (Syndex.Schedule.deadlock_free sched);
            print_string (Syndex.Schedule.gantt sched));
        if timings then print_timings c)
  in
  Cmd.v
    (Cmd.info "map" ~doc:"Map the process network onto an architecture (SynDEx step).")
    Term.(
      const run $ app_arg $ frames_arg $ procs_arg $ topo_arg $ strategy_arg
      $ timings_arg $ dump_arg $ file_arg)

let macro_cmd =
  let run app frames procs topo strat timings file =
    wrap (fun () ->
        let c = compile ~app ~frames file in
        let arch = topology topo procs in
        let sched = Skipper_lib.Pipeline.map ~strategy:(strategy_of strat) c arch in
        print_string (Skipper_lib.Pipeline.macro_code c sched);
        if timings then print_timings c)
  in
  Cmd.v
    (Cmd.info "macro" ~doc:"Emit the m4 macro-code of the distributed executive.")
    Term.(
      const run $ app_arg $ frames_arg $ procs_arg $ topo_arg $ strategy_arg
      $ timings_arg $ file_arg)

let emulate_cmd =
  let run app frames timings file =
    wrap (fun () ->
        let c = compile ~app ~frames file in
        let input =
          match (c.Skipper_lib.Pipeline.input, default_input app) with
          | Some v, _ | None, Some v -> v
          | None, None -> failwith "no input available; the source must fix one"
        in
        let v, cycles =
          Skel.Sem.run_cost c.Skipper_lib.Pipeline.table
            c.Skipper_lib.Pipeline.program input
        in
        Printf.printf "%s\n" (Skel.Value.to_string v);
        Printf.printf
          "estimated single-processor time: %.1f ms (%.0f cycles at 20 MHz)\n"
          (cycles *. 5e-8 *. 1e3) cycles;
        if timings then print_timings c)
  in
  Cmd.v
    (Cmd.info "emulate" ~doc:"Run the sequential emulation (workstation path).")
    Term.(const run $ app_arg $ frames_arg $ timings_arg $ file_arg)

(* The frontier artifact: every candidate schedule the strategy considered,
   as (label, latency, period, frames-in-flight, placement) points. *)
let render_frontier ~strategy ~arch c =
  let mapper = Option.get (Syndex.Mapper.find strategy) in
  let cost = Syndex.Cost.make () in
  let points =
    Syndex.Mapper.frontier mapper cost arch c.Skipper_lib.Pipeline.graph
  in
  (Syndex.Mapper.frontier_json ~strategy ~arch points ^ "\n", List.length points)

let frontier_file ~strategy ~arch c path =
  let content, npoints = render_frontier ~strategy ~arch c in
  ( path,
    content,
    Printf.sprintf "skipperc: wrote frontier (%d point%s) to %s" npoints
      (if npoints = 1 then "" else "s")
      path )

let run_cmd =
  let run app frames procs_list topo strat fps optimize df_state_str
      checkpoint_every cache_dir timings dump trace_out gantt_svg conformance
      series_out slos series_window frontier_out halts restores drops delays
      dups df_timeout jobs file =
    wrap (fun () ->
        let strategy = strategy_of strat in
        let df_state = df_state_of df_state_str in
        (match checkpoint_every with
        | Some k when k <= 0 -> failwith "--checkpoint-every: N must be positive"
        | _ -> ());
        (* parsed before anything runs, so a bad spec fails fast *)
        let slo_specs =
          List.map
            (fun s ->
              match Skipper_trace.Series.Slo.parse s with
              | Ok spec -> spec
              | Error msg -> failwith msg)
            slos
        in
        let conformance_report ~schedule ~input_period r =
          match
            Skipper_trace.Conformance.analyse ~schedule
              ~output_times:r.Executive.output_times ?input_period
              (Executive.timeline r)
          with
          | Ok report -> report
          | Error msg -> failwith msg
        in
        (* One variant: run [c] on [procs] processors, print its report
           through [out] and return its rendered artifacts, [subst] mapping
           each artifact path. *)
        let run_one ~out ~subst c procs =
          let arch = topology topo procs in
          let input_period = Option.map (fun f -> 1.0 /. f) fps in
          (* built per run: a fault plan carries per-schedule state *)
          let faults, restores, link_faults, recovery =
            fault_plan ~halts ~restores ~drops ~delays ~dups ~df_timeout
          in
          let tracing =
            trace_out <> None || gantt_svg <> None || conformance
            || series_out <> [] || slo_specs <> []
          in
          let schedule, r =
            Skipper_lib.Pipeline.execute_with_schedule ~trace:tracing
              ?input_period ~faults ~restores ~link_faults ?recovery
              ?checkpoint_every ~strategy ?input:(default_input app) c arch
          in
          out (Printf.sprintf "result: %s\n" (Skel.Value.to_string r.Executive.value));
          List.iteri
            (fun i l -> out (Printf.sprintf "frame %3d latency %8.2f ms\n" i (l *. 1e3)))
            r.Executive.latencies;
          out
            (Printf.sprintf "messages: %d, bytes: %d\n"
               r.Executive.stats.Machine.Sim.messages
               r.Executive.stats.Machine.Sim.bytes);
          out (outcome_lines r);
          let report =
            if conformance then begin
              let report = conformance_report ~schedule ~input_period r in
              out (Skipper_trace.Conformance.to_string report);
              Some report
            end
            else None
          in
          let slo, sfiles =
            series_files ~series_out:(List.map subst series_out) ~slo_specs
              ~series_window r
          in
          Option.iter (fun rep -> out (Skipper_trace.Series.Slo.to_string rep)) slo;
          render_traces ~compiled:c ~schedule ?report ?slo
            ~trace_out:(Option.map subst trace_out)
            ~gantt_svg:(Option.map subst gantt_svg)
            r
          @ sfiles
          @ Option.to_list
              (Option.map
                 (fun path -> frontier_file ~strategy ~arch c (subst path))
                 frontier_out)
        in
        match procs_list with
        | [] -> failwith "--procs: empty list"
        | [ procs ] ->
            let cache = make_cache cache_dir in
            let c = compile ~app ~frames ~optimize ?df_state ?cache file in
            Option.iter
              (fun cache -> Printf.eprintf "%s\n" (cache_summary cache))
              cache;
            (match dump with
            | Some stage ->
                dump_stage ~arch:(topology topo procs) ~strategy
                  ?input:(default_input app) c stage
            | None ->
                write_artifacts (run_one ~out:print_string ~subst:Fun.id c procs));
            if timings then print_timings c
        | _ ->
            (* Multi-variant sweep: one self-contained job per processor
               count, farmed over the domain pool. Each job compiles its own
               pipeline (a compiled artifact carries a mutable report list,
               so variants must not share one) and returns its stdout as a
               string plus rendered artifacts; the main domain prints and
               writes in sweep order, so every output is byte-identical at
               any --jobs level. Artifact paths must carry a %{procs}
               template so variants do not overwrite each other; the
               remaining wall-clock-flavoured flags make no sense spread
               over several variants and are rejected. *)
            if dump <> None || timings then
              failwith "--dump-stage and --timings need a single --procs value";
            List.iter
              (fun (flag, path) ->
                match path with
                | Some p when not (has_procs_template p) ->
                    failwith
                      (Printf.sprintf
                         "%s %s: a multi-count --procs sweep needs a %%{procs} \
                          template in the path (e.g. %s)"
                         flag p
                         (Printf.sprintf "trace-%%{procs}%s"
                            (Filename.extension p)))
                | _ -> ())
              ([ ("--trace-out", trace_out); ("--gantt-svg", gantt_svg);
                 ("--frontier-out", frontier_out) ]
              @ List.map (fun p -> ("--series-out", Some p)) series_out);
            let job procs () =
              (* per-variant cache over the shared store; no summary line —
                 which variant warms the store first is a race, and sweep
                 output must stay deterministic *)
              let c =
                compile ~app ~frames ~optimize ?df_state
                  ?cache:(make_cache cache_dir) file
              in
              let b = Buffer.create 256 in
              Buffer.add_string b (Printf.sprintf "== --procs %d ==\n" procs);
              let files =
                run_one ~out:(Buffer.add_string b) ~subst:(subst_procs ~procs) c
                  procs
              in
              (Buffer.contents b, files)
            in
            List.iter
              (fun (out, files) ->
                print_string out;
                write_artifacts files)
              (Support.Domain_pool.run ~jobs (List.map job procs_list)))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile, map and execute on the simulated MIMD-DM machine.")
    Term.(
      const run $ app_arg $ frames_arg $ procs_list_arg $ topo_arg $ strategy_arg
      $ fps_arg $ optimize_arg $ df_state_arg $ checkpoint_arg $ cache_dir_arg
      $ timings_arg $ dump_arg
      $ trace_out_arg $ gantt_svg_arg $ conformance_arg $ series_out_arg
      $ slo_arg $ series_window_arg $ frontier_out_arg $ halt_arg $ restore_arg
      $ drop_link_arg $ delay_link_arg $ dup_link_arg $ df_timeout_arg
      $ jobs_arg $ file_arg)

let equiv_cmd =
  let run app frames procs topo timings file =
    wrap (fun () ->
        let c = compile ~app ~frames file in
        let arch = topology topo procs in
        (match
           Skipper_lib.Pipeline.check_equivalence ?input:(default_input app) c arch
         with
        | Ok v ->
            Printf.printf "sequential emulation and distributed executive agree\n";
            Printf.printf "result: %s\n" (Skel.Value.to_string v)
        | Error msg -> failwith msg);
        if timings then print_timings c)
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:"Check that emulation and the parallel executive produce equal results.")
    Term.(
      const run $ app_arg $ frames_arg $ procs_arg $ topo_arg $ timings_arg
      $ file_arg)

let repl_cmd =
  let run app =
    wrap (fun () -> Minicaml.Repl.run_channel (app_table app) stdin stdout)
  in
  Cmd.v
    (Cmd.info "repl"
       ~doc:"Interactive toplevel over the specification language (with the \
             chosen application's externals in scope).")
    Term.(const run $ app_arg)

let demo_cmd =
  let run app procs trace_out gantt_svg halts restores drops delays dups
      df_timeout =
    wrap (fun () ->
        let arch = topology "ring" procs in
        let frames = 10 in
        let table, program, input =
          match app with
          | "tracking" ->
              let config = Tracking.Funcs.default_config in
              ( Tracking.Funcs.table config,
                Tracking.Funcs.ir ~frames config,
                Tracking.Funcs.input_value config )
          | "ccl" ->
              let t = app_table "ccl" in
              (t, Apps.Ccl_scm.ir ~nparts:(max 1 (procs - 1)),
               Option.get (default_input "ccl"))
          | "road" ->
              let t = app_table "road" in
              (t, Apps.Road.ir ~frames ~nstrips:(max 1 (procs - 1)) (),
               Apps.Road.input_value ~width:512 ~height:512)
          | "quadtree" ->
              let t = app_table "quadtree" in
              (t, Apps.Quadtree.ir ~nworkers:(max 1 (procs - 1)),
               Option.get (default_input "quadtree"))
          | other -> failwith (Printf.sprintf "no demo for %S" other)
        in
        let compiled = Skipper_lib.Pipeline.compile_ir ~table program in
        let tracing = trace_out <> None || gantt_svg <> None in
        let faults, restores, link_faults, recovery =
          fault_plan ~halts ~restores ~drops ~delays ~dups ~df_timeout
        in
        let r =
          Skipper_lib.Pipeline.execute ~trace:tracing ~input ~input_period:0.04
            ~faults ~restores ~link_faults ?recovery compiled arch
        in
        Printf.printf "application: %s on %s, %d stream iteration(s)\n" app
          (Archi.name arch) program.Skel.Ir.frames;
        List.iteri
          (fun i l -> Printf.printf "frame %3d latency %8.2f ms\n" i (l *. 1e3))
          r.Executive.latencies;
        print_outcome r;
        print_string (Machine.Metrics.to_string (Executive.metrics r));
        write_artifacts (render_traces ~compiled ~trace_out ~gantt_svg r))
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"Run a built-in application end to end (no specification file).")
    Term.(
      const run $ app_arg $ procs_arg $ trace_out_arg $ gantt_svg_arg $ halt_arg
      $ restore_arg $ drop_link_arg $ delay_link_arg $ dup_link_arg
      $ df_timeout_arg)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix domain socket the daemon listens on (serve) or connects \
              to (client).")

let serve_cmd =
  let run socket cache_dir jobs log_file log_level metrics_out =
    wrap (fun () ->
        let level =
          match Support.Log.level_of_string log_level with
          | Ok l -> l
          | Error m -> failwith m
        in
        let with_log k =
          match log_file with
          | None -> k (Support.Log.to_channel ~level stderr)
          | Some path ->
              Out_channel.with_open_gen
                [ Open_wronly; Open_creat; Open_append ] 0o644 path
                (fun oc -> k (Support.Log.to_channel ~level oc))
        in
        with_log (fun log ->
            let metrics = Support.Metrics.create () in
            let cfg =
              {
                Skipper_lib.Serve.table_of = app_table;
                input_of = default_input;
                arch_of = Archi.ring;
                store = Option.map open_cache_store cache_dir;
                jobs;
                log;
                metrics = Some metrics;
                timeline = None;
              }
            in
            let served = Skipper_lib.Serve.serve cfg ~socket () in
            Option.iter
              (fun path ->
                Out_channel.with_open_text path (fun oc ->
                    Out_channel.output_string oc
                      (Support.Metrics.to_prometheus metrics)))
              metrics_out;
            Printf.eprintf "skipperc: serve: %d request(s) served\n" served))
  in
  let log_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-file" ] ~docv:"PATH"
          ~doc:"Append the structured JSONL log to $(docv) (default: \
                stderr).")
  in
  let log_level_arg =
    Arg.(
      value & opt string "info"
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"Minimum level to log: debug, info, warn or error.")
  in
  let metrics_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"PATH"
          ~doc:"Write the final Prometheus metrics exposition to $(docv) at \
                shutdown.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the compile daemon: a long-lived process on a Unix socket \
             accepting batched compile/run requests (length-prefixed JSON), \
             with warm in-process caches and an optional shared --cache-dir \
             store. Every request is logged (JSONL) and measured into a \
             metrics registry; scrape it live with the metrics op or watch \
             it with skipperc top. Stops on a shutdown request.")
    Term.(
      const run $ socket_arg $ cache_dir_arg $ jobs_arg $ log_file_arg
      $ log_level_arg $ metrics_out_arg)

let client_cmd =
  let run socket op app frames optimize procs strat file =
    wrap (fun () ->
        let source () =
          match file with
          | Some f -> read_file f
          | None -> failwith (Printf.sprintf "op %s needs a FILE argument" op)
        in
        let req =
          match op with
          | "compile" ->
              Skipper_lib.Serve.req_compile ~frames ~optimize ~app (source ())
          | "run" ->
              Skipper_lib.Serve.req_run ~frames ~optimize
                ~strategy:(strategy_of strat) ~procs ~app (source ())
          | "stats" -> Skipper_lib.Serve.req_stats
          | "metrics" -> Skipper_lib.Serve.req_metrics
          | "shutdown" -> Skipper_lib.Serve.req_shutdown
          | other -> failwith (Printf.sprintf "unknown op %S" other)
        in
        match Skipper_lib.Serve.call ~socket [ req ] with
        | Ok [ resp ] ->
            (* the metrics exposition is text, not JSON: print it raw so the
               output pipes straight into a Prometheus scrape file *)
            let exposition =
              if op = "metrics" then
                Option.bind
                  (Support.Json.member "exposition" resp)
                  Support.Json.to_str
              else None
            in
            (match exposition with
            | Some text -> print_string text
            | None -> print_endline (Support.Json.to_string resp))
        | Ok _ -> failwith "unexpected response count"
        | Error msg -> failwith msg)
  in
  let op_arg =
    Arg.(
      value & opt string "run"
      & info [ "op" ] ~docv:"OP"
          ~doc:"Request to send: run (default), compile, stats, metrics or \
                shutdown.")
  in
  let file_opt_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running serve daemon and print the JSON \
             response.")
    Term.(
      const run $ socket_arg $ op_arg $ app_arg $ frames_arg $ optimize_arg
      $ procs_arg $ strategy_arg $ file_opt_arg)

let top_cmd =
  let run socket watch =
    wrap (fun () ->
        let once () =
          match Skipper_lib.Serve.call ~socket [ Skipper_lib.Serve.req_stats ] with
          | Ok [ resp ] -> print_string (Skipper_lib.Serve.render_top resp)
          | Ok _ -> failwith "unexpected response count"
          | Error msg -> failwith msg
        in
        match watch with
        | None -> once ()
        | Some period ->
            while true do
              (* clear screen + home, like watch(1) *)
              print_string "\027[2J\027[H";
              once ();
              Out_channel.flush stdout;
              Unix.sleepf period
            done)
  in
  let watch_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "watch" ] ~docv:"SECONDS"
          ~doc:"Refresh every $(docv) seconds until interrupted (default: \
                print one snapshot and exit).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"One-screen live view of a running serve daemon: uptime, request \
             rate, per-op latency quantiles, cache hit ratio and per-domain \
             busy fractions, from the daemon's stats op.")
    Term.(const run $ socket_arg $ watch_arg)

let main =
  let doc = "SKiPPER: skeleton-based parallel programming environment" in
  Cmd.group (Cmd.info "skipperc" ~doc ~version:"1.0.0")
    [ check_cmd; graph_cmd; map_cmd; macro_cmd; emulate_cmd; run_cmd; equiv_cmd;
      repl_cmd; demo_cmd; serve_cmd; client_cmd; top_cmd ]

let () = exit (Cmd.eval' main)
