(* Tests for the top-level environment facade: compilation errors with
   located messages, mapping strategies, equivalence checking, and the
   artefact emitters. *)

module P = Skipper_lib.Pipeline
module V = Skel.Value

let simple_table () =
  Skel.Funtable.of_list
    [
      ("sq", 1, (fun v -> V.Int (V.to_int v * V.to_int v)), fun _ -> 1000.0);
      ( "plus",
        2,
        (fun v ->
          let a, b = V.to_pair v in
          V.Int (V.to_int a + V.to_int b)),
        fun _ -> 100.0 );
    ]

let simple_src =
  {|external sq : int -> int
external plus : int -> int -> int
let main = fun xs -> df 3 sq plus 0 xs|}

let test_compile_source_ok () =
  let c = P.compile_source ~table:(simple_table ()) simple_src in
  Alcotest.(check string) "name" "main" c.P.name;
  Alcotest.(check (list string)) "skeletons" [ "df" ]
    (Skel.Ir.skeleton_instances c.P.program.Skel.Ir.body);
  Alcotest.(check bool) "signatures recorded" true
    (List.mem_assoc "main" c.P.signatures)

let expect_error ?(check = fun _ -> true) f =
  try
    ignore (f ());
    Alcotest.fail "expected Compile_error"
  with P.Compile_error msg -> Alcotest.(check bool) ("message: " ^ msg) true (check msg)

let test_compile_parse_error () =
  expect_error
    ~check:(fun m -> Astring.String.is_infix ~affix:"parse error" m)
    (fun () -> P.compile_source ~table:(simple_table ()) "let main = (")

let test_compile_type_error () =
  expect_error
    ~check:(fun m -> Astring.String.is_infix ~affix:"type error" m)
    (fun () -> P.compile_source ~table:(simple_table ()) "let main = 1 + true")

let test_compile_extract_error () =
  expect_error
    ~check:(fun m -> Astring.String.is_infix ~affix:"extraction" m)
    (fun () -> P.compile_source ~table:(simple_table ()) "let main = 42")

let test_compile_ir_validates () =
  expect_error (fun () ->
      P.compile_ir ~table:(simple_table ())
        (Skel.Ir.program "bad" (Skel.Ir.Seq "missing")))

let test_emulate_and_execute_agree () =
  let c = P.compile_source ~table:(simple_table ()) simple_src in
  let input = V.List (List.init 7 (fun i -> V.Int i)) in
  let emulated = P.emulate c input in
  Alcotest.(check bool) "expected sum of squares" true (V.equal emulated (V.Int 91));
  List.iter
    (fun strategy ->
      let r = P.execute ~strategy ~input c (Archi.ring 4) in
      Alcotest.(check bool) "strategy agrees" true (V.equal emulated r.Executive.value))
    (Syndex.Mapper.names ())

let test_check_equivalence () =
  let c = P.compile_source ~table:(simple_table ()) simple_src in
  let input = V.List [ V.Int 2; V.Int 3 ] in
  match P.check_equivalence ~input c (Archi.ring 3) with
  | Ok v -> Alcotest.(check bool) "13" true (V.equal v (V.Int 13))
  | Error m -> Alcotest.fail m

let test_execute_requires_input () =
  let c = P.compile_source ~table:(simple_table ()) simple_src in
  expect_error (fun () -> P.execute c (Archi.ring 2))

let test_map_strategies_differ_but_validate () =
  let c = P.compile_source ~table:(simple_table ()) simple_src in
  let arch = Archi.ring 4 in
  List.iter
    (fun strategy ->
      let s = P.map ~strategy c arch in
      match Syndex.Schedule.validate s with
      | Ok () -> ()
      | Error m -> Alcotest.failf "invalid schedule: %s" m)
    (Syndex.Mapper.names ())

let test_unknown_strategy_lists_names () =
  let c = P.compile_source ~table:(simple_table ()) simple_src in
  expect_error
    ~check:(fun m ->
      Astring.String.is_infix ~affix:"unknown mapping strategy" m
      && Astring.String.is_infix ~affix:"heft" m
      && Astring.String.is_infix ~affix:"bicriteria" m)
    (fun () -> P.map ~strategy:"hetf" c (Archi.ring 4))

(* The reason pipelined mapping exists: on a pure stage chain under
   saturated input, the interval mapper's measured steady-state period must
   beat HEFT's (which serialises the chain on one processor to avoid
   communication, so its period is the whole chain's compute time). *)
let test_throughput_beats_heft_period () =
  let nstages = 6 in
  let table = Skel.Funtable.create () in
  for i = 1 to nstages do
    Skel.Funtable.register table
      (Printf.sprintf "s%d" i)
      ~arity:1
      ~cost:(fun _ -> 40_000.0)
      (fun v -> v)
  done;
  let ir =
    Skel.Ir.program ~frames:8 "chain"
      (Skel.Ir.Pipe
         (List.init nstages (fun i -> Skel.Ir.Seq (Printf.sprintf "s%d" (i + 1)))))
  in
  let c = P.compile_ir ~table ir in
  let arch = Archi.ring 8 in
  let cost = Syndex.Cost.make ~fn_cycles:(fun _ -> Some 40_000.0) () in
  (* Sustained ms/frame: all frames are injected at t = 0, so the last
     output's completion time divided by the frame count converges on the
     true steady-state period. Inter-output spacing would be misleading
     here — a serialised chain drains its last stage's backlog back-to-back,
     so its spacing shows one stage time even at 1/6th the throughput. *)
  let period strategy =
    let _, r =
      P.execute_with_schedule ~strategy ~cost ~input:(V.Int 0) c arch
    in
    match List.rev r.Executive.output_times with
    | last :: _ -> last /. float_of_int (List.length r.Executive.output_times)
    | [] -> Alcotest.failf "%s: no outputs" strategy
  in
  let heft = period "heft" and throughput = period "throughput" in
  Alcotest.(check bool)
    (Printf.sprintf "throughput period %.6f < heft period %.6f" throughput heft)
    true
    (throughput < heft)

let test_macro_and_dot () =
  let c = P.compile_source ~table:(simple_table ()) simple_src in
  let arch = Archi.ring 4 in
  let s = P.map c arch in
  let macro = P.macro_code c s in
  Alcotest.(check bool) "macro has farm" true
    (Astring.String.is_infix ~affix:"farm_" macro);
  let dot = P.graph_dot c in
  Alcotest.(check bool) "dot is a digraph" true
    (Astring.String.is_prefix ~affix:"digraph" dot)

let test_signature_report () =
  let c = P.compile_source ~table:(simple_table ()) simple_src in
  let text = Format.asprintf "%a" P.pp_signatures c in
  Alcotest.(check bool) "mentions main" true
    (Astring.String.is_infix ~affix:"val main :" text)

let test_tracking_end_to_end_equivalence () =
  let config =
    {
      Tracking.Funcs.default_config with
      Tracking.Funcs.scene =
        { Vision.Scene.default_params with Vision.Scene.width = 192; height = 192 };
      nproc = 3;
    }
  in
  let table = Tracking.Funcs.table config in
  let c = P.compile_source ~frames:3 ~table (Tracking.Funcs.source config) in
  match P.check_equivalence c (Archi.ring 4) with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m

let () =
  Alcotest.run "pipeline"
    [
      ( "compilation",
        [
          Alcotest.test_case "compile source" `Quick test_compile_source_ok;
          Alcotest.test_case "parse error" `Quick test_compile_parse_error;
          Alcotest.test_case "type error" `Quick test_compile_type_error;
          Alcotest.test_case "extract error" `Quick test_compile_extract_error;
          Alcotest.test_case "IR validation" `Quick test_compile_ir_validates;
        ] );
      ( "execution",
        [
          Alcotest.test_case "emulate/execute agree" `Quick test_emulate_and_execute_agree;
          Alcotest.test_case "check_equivalence" `Quick test_check_equivalence;
          Alcotest.test_case "input required" `Quick test_execute_requires_input;
          Alcotest.test_case "strategies validate" `Quick test_map_strategies_differ_but_validate;
          Alcotest.test_case "unknown strategy error" `Quick test_unknown_strategy_lists_names;
          Alcotest.test_case "throughput beats heft period" `Quick
            test_throughput_beats_heft_period;
          Alcotest.test_case "tracking end-to-end" `Quick test_tracking_end_to_end_equivalence;
        ] );
      ( "artefacts",
        [
          Alcotest.test_case "macro and dot" `Quick test_macro_and_dot;
          Alcotest.test_case "signatures" `Quick test_signature_report;
        ] );
    ]
