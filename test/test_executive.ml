(* Tests for the distributed executive: end-to-end equivalence with the
   declarative semantics for every skeleton, dynamic load balancing, error
   handling, and macro-code emission. *)

module V = Skel.Value
module Ir = Skel.Ir

let value_testable = Alcotest.testable V.pp V.equal

let base_table () =
  Skel.Funtable.of_list
    [
      ("sq", 1, (fun v -> V.Int (V.to_int v * V.to_int v)), fun _ -> 5000.0);
      ( "add",
        2,
        (fun v ->
          let a, b = V.to_pair v in
          V.Int (V.to_int a + V.to_int b)),
        fun _ -> 500.0 );
      ( "chunks",
        2,
        (fun v ->
          match v with
          | V.Tuple [ V.Int n; V.List xs ] ->
              let buckets = Array.make n [] in
              List.iteri (fun i x -> buckets.(i mod n) <- x :: buckets.(i mod n)) xs;
              V.List (Array.to_list (Array.map (fun l -> V.List (List.rev l)) buckets))
          | _ -> raise (V.Type_error "chunks")),
        fun _ -> 800.0 );
      ( "sum_chunk",
        1,
        (fun v -> V.Int (List.fold_left (fun a x -> a + V.to_int x) 0 (V.to_list v))),
        fun _ -> 2000.0 );
      ( "sum_parts",
        1,
        (fun v -> V.Int (List.fold_left (fun a x -> a + V.to_int x) 0 (V.to_list v))),
        fun _ -> 800.0 );
      ( "divide",
        1,
        (fun v ->
          let n = V.to_int v in
          if n > 4 then
            V.Tuple [ V.List [ V.Int (n / 2); V.Int (n - (n / 2)) ]; V.Int 0 ]
          else V.Tuple [ V.List []; V.Int n ]),
        fun _ -> 3000.0 );
      ( "src",
        2,
        (fun v ->
          let _, i = V.to_pair v in
          V.List (List.init 6 (fun j -> V.Int ((V.to_int i * 10) + j)))),
        fun _ -> 1000.0 );
      ("sink", 1, Fun.id, fun _ -> 100.0);
      ( "unpack",
        1,
        (fun v ->
          let _, xs = V.to_pair v in
          xs),
        fun _ -> 200.0 );
      ( "mkstate",
        1,
        (fun y -> V.Tuple [ y; y ]),
        fun _ -> 400.0 );
    ]

let run_both ?(frames = 1) ?(arch = Archi.ring 4) program input =
  let table = base_table () in
  let seq = Skel.Sem.run table program input in
  let g = Procnet.Expand.expand table program in
  let placement = Syndex.Place.canonical g arch in
  let par =
    Executive.run ~table ~arch ~placement ~graph:g ~frames ~input ()
  in
  (seq, par)

let test_df_equivalence () =
  let program =
    Ir.program "df" (Ir.Df { nworkers = 3; comp = "sq"; acc = "add"; init = V.Int 0; state = Ir.Stateless })
  in
  let input = V.List (List.init 10 (fun i -> V.Int i)) in
  let seq, par = run_both program input in
  Alcotest.(check value_testable) "df equal" seq par.Executive.value

let test_df_more_workers_than_items () =
  let program =
    Ir.program "df" (Ir.Df { nworkers = 8; comp = "sq"; acc = "add"; init = V.Int 0; state = Ir.Stateless })
  in
  let seq, par = run_both program (V.List [ V.Int 3; V.Int 4 ]) in
  Alcotest.(check value_testable) "partial farm" seq par.Executive.value

let test_df_empty_input () =
  let program =
    Ir.program "df" (Ir.Df { nworkers = 4; comp = "sq"; acc = "add"; init = V.Int 7; state = Ir.Stateless })
  in
  let seq, par = run_both program (V.List []) in
  Alcotest.(check value_testable) "empty farm gives init" seq par.Executive.value;
  Alcotest.(check value_testable) "which is 7" (V.Int 7) par.Executive.value

let test_scm_equivalence () =
  let program =
    Ir.program "scm"
      (Ir.Scm { nparts = 4; split = "chunks"; compute = "sum_chunk"; merge = "sum_parts" })
  in
  let input = V.List (List.init 13 (fun i -> V.Int i)) in
  let seq, par = run_both program input in
  Alcotest.(check value_testable) "scm equal" seq par.Executive.value;
  Alcotest.(check value_testable) "value" (V.Int 78) par.Executive.value

let test_tf_equivalence () =
  let program =
    Ir.program "tf" (Ir.Tf { nworkers = 3; work = "divide"; acc = "add"; init = V.Int 0 })
  in
  let input = V.List [ V.Int 20; V.Int 9 ] in
  let seq, par = run_both program input in
  Alcotest.(check value_testable) "tf equal" seq par.Executive.value;
  Alcotest.(check value_testable) "sum preserved" (V.Int 29) par.Executive.value

let test_itermem_equivalence () =
  let program =
    Ir.program ~frames:5 "stream"
      (Ir.Itermem
         {
           input = "src";
           loop =
             Ir.Pipe
               [
                 Ir.Seq "unpack";
                 Ir.Df { nworkers = 3; comp = "sq"; acc = "add"; init = V.Int 0; state = Ir.Stateless };
                 Ir.Seq "mkstate";
               ];
           output = "sink";
           init = V.Int 0;
         })
  in
  let seq, par = run_both ~frames:5 program (V.Str "cam") in
  Alcotest.(check value_testable) "itermem equal" seq par.Executive.value;
  Alcotest.(check int) "five outputs" 5 (List.length par.Executive.outputs)

let test_pipeline_stage_equivalence () =
  let program = Ir.program "pipe" (Ir.Pipe [ Ir.Seq "sq"; Ir.Seq "sq" ]) in
  let seq, par = run_both program (V.Int 3) in
  Alcotest.(check value_testable) "pipe equal" seq par.Executive.value;
  Alcotest.(check value_testable) "81" (V.Int 81) par.Executive.value

let test_multi_frame_plain_program () =
  let program = Ir.program "p" (Ir.Seq "sq") in
  let table = base_table () in
  let g = Procnet.Expand.expand table program in
  let arch = Archi.ring 2 in
  let r =
    Executive.run ~table ~arch
      ~placement:(Syndex.Place.canonical g arch)
      ~graph:g ~frames:4 ~input:(V.Int 5) ()
  in
  Alcotest.(check int) "four outputs" 4 (List.length r.Executive.outputs);
  List.iter
    (fun o -> Alcotest.(check value_testable) "each is 25" (V.Int 25) o)
    r.Executive.outputs

let test_dynamic_load_balancing () =
  (* With wildly uneven costs, dynamic dispatch must beat a static split:
     verify that the slow item does not serialise everything (makespan
     close to the slow item's cost, not the sum). *)
  let table = Skel.Funtable.create () in
  Skel.Funtable.register table "work"
    ~cost:(fun v -> if V.to_int v = 0 then 1_000_000.0 else 10_000.0)
    (fun v -> v);
  Skel.Funtable.register table "keep" ~arity:2
    ~cost:(fun _ -> 100.0)
    (fun v -> V.Int (V.to_int (fst (V.to_pair v)) + 1));
  let program =
    Ir.program "lb" (Ir.Df { nworkers = 4; comp = "work"; acc = "keep"; init = V.Int 0; state = Ir.Stateless })
  in
  let input = V.List (List.init 17 (fun i -> V.Int i)) in
  let g = Procnet.Expand.expand table program in
  let arch = Archi.ring 5 in
  let r =
    Executive.run ~table ~arch
      ~placement:(Syndex.Place.canonical g arch)
      ~graph:g ~frames:1 ~input ()
  in
  (* slow item = 1e6 cycles * 50ns = 50ms; 16 fast items spread over the
     other 3 workers add ~2.7ms if balanced. Static on 4 workers with the
     slow one plus 3 fast in one bucket would still be ~50ms; the real test
     is that total isn't the 58ms serial sum. *)
  let serial_ms = (1_000_000.0 +. (16.0 *. 10_000.0)) *. 5e-8 *. 1e3 in
  Alcotest.(check bool) "faster than serial" true
    (r.Executive.first_latency *. 1e3 < serial_ms);
  Alcotest.(check value_testable) "all items processed" (V.Int 17) r.Executive.value

let test_latencies_with_pacing () =
  let program = Ir.program "p" (Ir.Seq "sq") in
  let table = base_table () in
  let g = Procnet.Expand.expand table program in
  let arch = Archi.ring 1 in
  let r =
    Executive.run ~table ~arch ~placement:[| 0 |] ~graph:g ~frames:3
      ~input_period:0.1 ~input:(V.Int 2) ()
  in
  List.iter
    (fun l -> Alcotest.(check bool) "latency small and positive" true (l > 0.0 && l < 0.01))
    r.Executive.latencies

(* [run_schedule] is [run] on the schedule's architecture, placement and
   graph: same value, outputs, output times and machine statistics, paced
   or not. *)
let test_run_schedule_matches_run () =
  let table = base_table () in
  let program =
    Ir.program ~frames:3 "p"
      (Ir.Df
         { nworkers = 3; comp = "sq"; acc = "add"; init = V.Int 0;
           state = Ir.Stateless })
  in
  let input = V.List (List.init 7 (fun i -> V.Int i)) in
  let c = Skipper_lib.Pipeline.compile_ir ~table program in
  let s = Skipper_lib.Pipeline.map ~strategy:"heft" c (Archi.ring 4) in
  List.iter
    (fun input_period ->
      let a =
        Executive.run_schedule ?input_period ~table ~schedule:s ~frames:3
          ~input ()
      in
      let b =
        Executive.run ?input_period ~table ~arch:s.Syndex.Schedule.arch
          ~placement:s.Syndex.Schedule.placement ~graph:s.Syndex.Schedule.graph
          ~frames:3 ~input ()
      in
      Alcotest.(check value_testable) "value" b.Executive.value a.Executive.value;
      Alcotest.(check (list value_testable)) "outputs" b.Executive.outputs
        a.Executive.outputs;
      Alcotest.(check (list (float 0.0))) "output times" b.Executive.output_times
        a.Executive.output_times;
      Alcotest.(check bool) "stats" true (a.Executive.stats = b.Executive.stats))
    [ None; Some 0.01 ]

let test_bad_placement_rejected () =
  let program = Ir.program "p" (Ir.Seq "sq") in
  let table = base_table () in
  let g = Procnet.Expand.expand table program in
  Alcotest.(check bool) "length mismatch" true
    (try
       ignore
         (Executive.run ~table ~arch:(Archi.ring 2) ~placement:[| 0; 1 |] ~graph:g
            ~frames:1 ~input:V.Unit ());
       false
     with Executive.Executive_error _ -> true)

let test_router_nodes_rejected () =
  let table = base_table () in
  let g = Procnet.Templates.df_ring ~nworkers:2 ~comp:"sq" ~acc:"add" ~init:(V.Int 0) in
  Alcotest.(check bool) "fig-1 template not executable" true
    (try
       ignore
         (Executive.run ~table ~arch:(Archi.ring 3)
            ~placement:(Array.make (Procnet.Graph.nnodes g) 0)
            ~graph:g ~frames:1 ~input:(V.List []) ());
       false
     with Executive.Executive_error _ | Machine.Sim.Process_failure _ -> true)

let test_user_exception_surfaces () =
  let table = Skel.Funtable.create () in
  Skel.Funtable.register table "boom" (fun _ -> failwith "user bug");
  let program = Ir.program "p" (Ir.Seq "boom") in
  let g = Procnet.Expand.expand table program in
  Alcotest.(check bool) "wrapped in Process_failure" true
    (try
       ignore
         (Executive.run ~table ~arch:(Archi.ring 1) ~placement:[| 0 |] ~graph:g
            ~frames:1 ~input:V.Unit ());
       false
     with Machine.Sim.Process_failure (_, Failure msg) -> msg = "user bug")

let test_macro_code_content () =
  let table = base_table () in
  let program =
    Ir.program ~frames:2 "m"
      (Ir.Itermem
         {
           input = "src";
           loop = Ir.Df { nworkers = 2; comp = "sq"; acc = "add"; init = V.Int 0; state = Ir.Stateless };
           output = "sink";
           init = V.Int 0;
         })
  in
  let g = Procnet.Expand.expand table program in
  let arch = Archi.ring 3 in
  let placement = Syndex.Place.canonical g arch in
  let code = Executive.Macro.emit g ~placement ~arch in
  let has affix = Astring.String.is_infix ~affix code in
  Alcotest.(check bool) "has master farm" true (has "farm_(workers=2)");
  Alcotest.(check bool) "has worker serve" true (has "serve_");
  Alcotest.(check bool) "has comp of user fn" true (has "comp_(sq)");
  Alcotest.(check bool) "has channel allocation" true (has "alloc_channel_");
  Alcotest.(check bool) "one program per used proc" true
    (has "define(`P0_PROGRAM'" && has "define(`P1_PROGRAM'")

let test_channel_table () =
  let table = base_table () in
  let program =
    Ir.program "p" (Ir.Df { nworkers = 2; comp = "sq"; acc = "add"; init = V.Int 0; state = Ir.Stateless })
  in
  let g = Procnet.Expand.expand table program in
  let placement = [| 0; 1; 2 |] in
  let chans = Executive.Macro.channel_table g ~placement in
  Alcotest.(check int) "4 cross-processor channels" 4 (List.length chans)

let prop_df_parallel_equals_sequential =
  QCheck.Test.make ~name:"df executive matches declarative semantics" ~count:40
    QCheck.(triple (int_range 1 6) (int_range 1 6) (small_list small_signed_int))
    (fun (nworkers, nprocs, xs) ->
      let program =
        Ir.program "q" (Ir.Df { nworkers; comp = "sq"; acc = "add"; init = V.Int 0; state = Ir.Stateless })
      in
      let input = V.List (List.map (fun x -> V.Int x) xs) in
      let seq, par = run_both ~arch:(Archi.ring nprocs) program input in
      V.equal seq par.Executive.value)

let prop_tf_parallel_equals_sequential =
  QCheck.Test.make ~name:"tf executive matches declarative semantics" ~count:30
    QCheck.(pair (int_range 1 5) (small_list (int_range 0 40)))
    (fun (nworkers, xs) ->
      let program =
        Ir.program "q" (Ir.Tf { nworkers; work = "divide"; acc = "add"; init = V.Int 0 })
      in
      let input = V.List (List.map (fun x -> V.Int x) xs) in
      let seq, par = run_both ~arch:(Archi.ring 4) program input in
      V.equal seq par.Executive.value)


let test_fault_stalls_pipeline () =
  (* Killing a processor that hosts a df worker mid-run stalls the farm:
     plain SKiPPER has no fault tolerance. The run must come back as a
     [Stalled] outcome with the partial counts — never an exception. *)
  let table = base_table () in
  let program =
    Ir.program "f" (Ir.Df { nworkers = 3; comp = "sq"; acc = "add"; init = V.Int 0; state = Ir.Stateless })
  in
  let g = Procnet.Expand.expand table program in
  let arch = Archi.ring 4 in
  let placement = Syndex.Place.canonical g arch in
  let input = V.List (List.init 30 (fun i -> V.Int i)) in
  let r =
    Executive.run ~faults:[ (1, 0.0005) ] ~table ~arch ~placement ~graph:g
      ~frames:1 ~input ()
  in
  (match r.Executive.outcome with
  | Executive.Stalled { collected; expected } ->
      Alcotest.(check int) "expected one frame" 1 expected;
      Alcotest.(check bool) "partial" true (collected < expected);
      Alcotest.(check int) "outputs match collected" collected
        (List.length r.Executive.outputs)
  | Executive.Completed -> Alcotest.fail "expected a stall")

let test_fault_on_idle_processor_harmless () =
  (* Halting a processor that hosts nothing must not change the result. *)
  let table = base_table () in
  let program = Ir.program "p" (Ir.Seq "sq") in
  let g = Procnet.Expand.expand table program in
  let arch = Archi.ring 3 in
  let r =
    Executive.run ~faults:[ (2, 0.0) ] ~table ~arch ~placement:[| 0 |] ~graph:g
      ~frames:1 ~input:(V.Int 6) ()
  in
  Alcotest.(check value_testable) "unaffected" (V.Int 36) r.Executive.value

let () =
  Alcotest.run "executive"
    [
      ( "equivalence",
        [
          Alcotest.test_case "df" `Quick test_df_equivalence;
          Alcotest.test_case "df more workers than items" `Quick test_df_more_workers_than_items;
          Alcotest.test_case "df empty input" `Quick test_df_empty_input;
          Alcotest.test_case "scm" `Quick test_scm_equivalence;
          Alcotest.test_case "tf" `Quick test_tf_equivalence;
          Alcotest.test_case "itermem" `Quick test_itermem_equivalence;
          Alcotest.test_case "pipeline" `Quick test_pipeline_stage_equivalence;
          Alcotest.test_case "multi-frame plain" `Quick test_multi_frame_plain_program;
          QCheck_alcotest.to_alcotest prop_df_parallel_equals_sequential;
          QCheck_alcotest.to_alcotest prop_tf_parallel_equals_sequential;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "dynamic load balancing" `Quick test_dynamic_load_balancing;
          Alcotest.test_case "latencies with pacing" `Quick test_latencies_with_pacing;
          Alcotest.test_case "run_schedule is run on the schedule" `Quick
            test_run_schedule_matches_run;
        ] );
      ( "errors",
        [
          Alcotest.test_case "bad placement" `Quick test_bad_placement_rejected;
          Alcotest.test_case "router nodes" `Quick test_router_nodes_rejected;
          Alcotest.test_case "user exception" `Quick test_user_exception_surfaces;
          Alcotest.test_case "fault stalls pipeline" `Quick test_fault_stalls_pipeline;
          Alcotest.test_case "fault on idle processor" `Quick test_fault_on_idle_processor_harmless;
        ] );
      ( "macro-code",
        [
          Alcotest.test_case "content" `Quick test_macro_code_content;
          Alcotest.test_case "channel table" `Quick test_channel_table;
        ] );
    ]
