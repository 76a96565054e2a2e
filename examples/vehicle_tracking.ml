(* The paper's section-4 case study, end to end from the ML source text:
   real-time vehicle detection and tracking on a ring of 8 T9000-style
   processors, fed by a synthetic 25 Hz 512x512 video stream with two lead
   vehicles carrying three bright marks each.

   Run with: dune exec examples/vehicle_tracking.exe *)

let frames = 25

let () =
  let config = Tracking.Funcs.default_config in
  let table = Tracking.Funcs.table config in

  (* Compile the specification exactly as a SKiPPER user wrote it. *)
  let source = Tracking.Funcs.source config in
  print_endline "--- specification ---";
  print_string source;
  let compiled =
    Skipper_lib.Pipeline.compile_source ~frames ~table source
  in
  print_endline "--- inferred signatures ---";
  Format.printf "%a" Skipper_lib.Pipeline.pp_signatures compiled;

  (* The process network and its mapping onto the ring. *)
  let arch = Archi.ring config.Tracking.Funcs.nproc in
  let schedule = Skipper_lib.Pipeline.map compiled arch in
  Format.printf "--- mapping ---@.%a@." Syndex.Schedule.pp_summary schedule;
  Printf.printf "deadlock-free executive: %b\n"
    (Syndex.Schedule.deadlock_free schedule);

  (* Run the distributed executive against the 25 Hz stream. *)
  let result =
    Skipper_lib.Pipeline.execute ~input_period:0.04 compiled arch
  in
  print_endline "--- per-frame latency (ms) ---";
  List.iteri
    (fun i l ->
      let mode = if i = 0 then "  (reinitialisation)" else "" in
      Printf.printf "frame %2d: %7.2f%s\n" i (l *. 1e3) mode)
    result.Executive.latencies;

  (* Steady state: the paper reports ~30 ms for the tracking phase and
     ~110 ms for reinitialisation on the same hardware model. *)
  let steady =
    match List.rev result.Executive.latencies with l :: _ -> l *. 1e3 | [] -> 0.0
  in
  Printf.printf "steady-state tracking latency: %.1f ms (paper: ~30 ms)\n" steady;

  (* Machine-level view of the run (SynDEx's optional performance
     measurement, paper section 3). *)
  print_endline "--- machine metrics ---";
  print_string (Machine.Metrics.to_string (Machine.Metrics.analyse result.Executive.sim));

  (* And the sequential emulation sees exactly the same marks. *)
  let table2 = Tracking.Funcs.table config in
  let compiled2 =
    Skipper_lib.Pipeline.compile_source ~frames ~table:table2
      (Tracking.Funcs.source config)
  in
  let emulated =
    Skipper_lib.Pipeline.emulate compiled2
      (Option.get compiled2.Skipper_lib.Pipeline.input)
  in
  Printf.printf "emulation agrees with executive: %b\n"
    (Skel.Value.equal emulated result.Executive.value);

  (* Per-stage cost of everything the pipeline ran for this program: the
     front-end stages once, then cost/map/simulate for the target. *)
  print_endline "--- pipeline stages ---";
  Format.printf "%a" Skipper_lib.Pipeline.pp_timings compiled
