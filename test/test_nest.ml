(* Tests for skeleton nesting: a nested stage behaves like its declarative
   composition, costs are derived by instrumentation, and the executive
   agrees with emulation. *)

module V = Skel.Value
module Ir = Skel.Ir

let value_testable = Alcotest.testable V.pp V.equal

let table () =
  Skel.Funtable.of_list
    [
      ("sq", 1, (fun v -> V.Int (V.to_int v * V.to_int v)), fun _ -> 7000.0);
      ( "add",
        2,
        (fun v ->
          let a, b = V.to_pair v in
          V.Int (V.to_int a + V.to_int b)),
        fun _ -> 300.0 );
      ( "burst",
        2,
        (fun v ->
          match v with
          | V.Tuple [ V.Int n; V.Int x ] -> V.List (List.init n (fun i -> V.Int (x + i)))
          | _ -> raise (V.Type_error "burst")),
        fun _ -> 400.0 );
      ( "sum_list",
        1,
        (fun v -> V.Int (List.fold_left (fun a x -> a + V.to_int x) 0 (V.to_list v))),
        fun _ -> 600.0 );
    ]

(* inner stage: x -> sum of squares of [x; x+1; x+2] *)
let inner =
  Ir.Pipe
    [
      Ir.Seq "enlist";
      Ir.Df { nworkers = 2; comp = "sq"; acc = "add"; init = V.Int 0; state = Ir.Stateless };
    ]

let with_enlist t =
  Skel.Funtable.register t "enlist" ~cost:(fun _ -> 100.0) (fun v ->
      V.List (List.init 3 (fun i -> V.Int (V.to_int v + i))));
  t

let expected_inner x = ((x * x) + ((x + 1) * (x + 1)) + ((x + 2) * (x + 2)))

let test_as_function_semantics () =
  let t = with_enlist (table ()) in
  let name = Skel.Nest.as_function t inner in
  Alcotest.(check value_testable) "nested fn computes the composition"
    (V.Int (expected_inner 4))
    (Skel.Funtable.apply t name (V.Int 4))

(* A packaged stage's name does not depend on what the process nested
   before: each call takes the first free [__n<k>] in its table. *)
let test_as_function_names () =
  let names t = List.init 2 (fun _ -> Skel.Nest.as_function t inner) in
  let first = names (with_enlist (table ())) in
  Alcotest.(check (list string)) "one table" [ "nested_df__n1"; "nested_df__n2" ] first;
  Alcotest.(check (list string)) "a fresh table names alike" first
    (names (with_enlist (table ())))

let test_as_function_cost_is_instrumented () =
  let t = with_enlist (table ()) in
  let name = Skel.Nest.as_function t inner in
  (* enlist (100) + 3 x sq (7000) + 3 x add (300) = 22000 *)
  Alcotest.(check (float 0.001)) "summed cost" 22_000.0
    (Skel.Funtable.cost t name (V.Int 4))

let test_itermem_rejected () =
  let t = table () in
  let stage =
    Ir.Itermem { input = "sq"; loop = Ir.Seq "sq"; output = "sq"; init = V.Unit }
  in
  Alcotest.(check bool) "rejected" true
    (try ignore (Skel.Nest.as_function t stage); false
     with Invalid_argument _ -> true)

let test_nested_df_of_df () =
  (* outer farm over items, inner farm per item. *)
  let t = with_enlist (table ()) in
  let program =
    Ir.program "nested"
      (Skel.Nest.df ~table:t ~nworkers:3 ~comp:inner ~acc:"add" ~init:(V.Int 0))
  in
  let input = V.List (List.init 6 (fun i -> V.Int i)) in
  let seq = Skel.Sem.run t program input in
  let expected = List.fold_left (fun a x -> a + expected_inner x) 0 [ 0; 1; 2; 3; 4; 5 ] in
  Alcotest.(check value_testable) "declarative meaning" (V.Int expected) seq;
  (* executive agrees *)
  let g = Procnet.Expand.expand t program in
  let arch = Archi.ring 4 in
  let r =
    Executive.run ~table:t ~arch
      ~placement:(Syndex.Place.canonical g arch)
      ~graph:g ~frames:1 ~input ()
  in
  Alcotest.(check value_testable) "executive agrees" seq r.Executive.value

let test_nested_outer_still_parallelises () =
  (* With 4 heavy inner stages across 2 workers, the farm should be ~2x
     faster than 1 worker. *)
  let run nworkers =
    let t = with_enlist (table ()) in
    let program =
      Ir.program "nested"
        (Skel.Nest.df ~table:t ~nworkers ~comp:inner ~acc:"add" ~init:(V.Int 0))
    in
    let g = Procnet.Expand.expand t program in
    let arch = Archi.ring (nworkers + 1) in
    let r =
      Executive.run ~table:t ~arch
        ~placement:(Syndex.Place.canonical g arch)
        ~graph:g ~frames:1
        ~input:(V.List (List.init 8 (fun i -> V.Int i)))
        ()
    in
    r.Executive.first_latency
  in
  let t1 = run 1 and t4 = run 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 workers beat 1 (%.3f vs %.3f ms)" (t4 *. 1e3) (t1 *. 1e3))
    true
    (t4 < t1 /. 2.0)

let test_nested_scm () =
  let t = with_enlist (table ()) in
  let program =
    Ir.program "nested-scm"
      (Skel.Nest.scm ~table:t ~nparts:2 ~split:"burst_pairs" ~compute:inner
         ~merge:"sum_list")
  in
  Skel.Funtable.register t "burst_pairs" ~arity:2 ~cost:(fun _ -> 50.0) (fun v ->
      match v with
      | V.Tuple [ V.Int n; V.Int x ] -> V.List (List.init n (fun i -> V.Int (x + i)))
      | _ -> raise (V.Type_error "burst_pairs"));
  let seq = Skel.Sem.run t program (V.Int 10) in
  Alcotest.(check value_testable) "scm of nested df"
    (V.Int (expected_inner 10 + expected_inner 11))
    seq

let prop_nested_equals_flat =
  QCheck.Test.make ~name:"nested df equals flat composition" ~count:60
    QCheck.(pair (int_range 1 4) (small_list (int_range 0 20)))
    (fun (nworkers, xs) ->
      let t = with_enlist (table ()) in
      let program =
        Ir.program "nested"
          (Skel.Nest.df ~table:t ~nworkers ~comp:inner ~acc:"add" ~init:(V.Int 0))
      in
      let input = V.List (List.map (fun x -> V.Int x) xs) in
      let seq = Skel.Sem.run t program input in
      let expected = List.fold_left (fun a x -> a + expected_inner x) 0 xs in
      V.equal seq (V.Int expected))

let () =
  Alcotest.run "nest"
    [
      ( "packaging",
        [
          Alcotest.test_case "semantics" `Quick test_as_function_semantics;
          Alcotest.test_case "instrumented cost" `Quick test_as_function_cost_is_instrumented;
          Alcotest.test_case "names per call" `Quick test_as_function_names;
          Alcotest.test_case "itermem rejected" `Quick test_itermem_rejected;
        ] );
      ( "composition",
        [
          Alcotest.test_case "df of df" `Quick test_nested_df_of_df;
          Alcotest.test_case "outer parallelises" `Quick test_nested_outer_still_parallelises;
          Alcotest.test_case "scm of df" `Quick test_nested_scm;
          QCheck_alcotest.to_alcotest prop_nested_equals_flat;
        ] );
    ]
