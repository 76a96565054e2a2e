(* Tests for process-network graphs and skeleton expansion. *)

module G = Procnet.Graph
module V = Skel.Value

let count_kind g pred =
  Array.to_list (G.nodes g) |> List.filter (fun n -> pred n.G.kind) |> List.length

let df_stage n = Skel.Ir.Df { nworkers = n; comp = "c"; acc = "a"; init = V.Int 0; state = Skel.Ir.Stateless }

let scm_stage n = Skel.Ir.Scm { nparts = n; split = "s"; compute = "c"; merge = "m" }

let test_expand_seq () =
  let g = Procnet.Expand.expand_stage (Skel.Ir.Seq "f") in
  Alcotest.(check int) "one node" 1 (G.nnodes g);
  Alcotest.(check int) "no edges" 0 (List.length (G.edges g))

let test_expand_pipe () =
  let g = Procnet.Expand.expand_stage (Skel.Ir.Pipe [ Skel.Ir.Seq "f"; Skel.Ir.Seq "g" ]) in
  Alcotest.(check int) "two nodes" 2 (G.nnodes g);
  Alcotest.(check int) "one edge" 1 (List.length (G.edges g));
  Alcotest.(check int) "entry" 0 (G.entry g);
  Alcotest.(check int) "exit" 1 (G.exit_node g)

let test_expand_df () =
  let g = Procnet.Expand.expand_stage (df_stage 5) in
  Alcotest.(check int) "master + workers" 6 (G.nnodes g);
  Alcotest.(check int) "task + result channels" 10 (List.length (G.edges g));
  Alcotest.(check int) "one master" 1
    (count_kind g (function G.DfMaster _ -> true | _ -> false));
  Alcotest.(check int) "five workers" 5
    (count_kind g (function G.DfWorker _ -> true | _ -> false));
  (* task edges target the worker "task" port *)
  List.iter
    (fun (e : G.edge) ->
      if e.G.src_port = "task" then
        Alcotest.(check string) "task port" "task" e.G.dst_port)
    (G.edges g)

let test_expand_scm () =
  let g = Procnet.Expand.expand_stage (scm_stage 4) in
  Alcotest.(check int) "split + merge + computes" 6 (G.nnodes g);
  Alcotest.(check int) "4 computes" 4
    (count_kind g (function G.ScmCompute _ -> true | _ -> false));
  Alcotest.(check int) "2 edges per part" 8 (List.length (G.edges g))

let test_expand_itermem () =
  let stage =
    Skel.Ir.Itermem
      { input = "in"; loop = Skel.Ir.Seq "f"; output = "out"; init = V.Int 0 }
  in
  let g = Procnet.Expand.expand_stage stage in
  (* input, mem, join, fork, output + loop body *)
  Alcotest.(check int) "nodes" 6 (G.nnodes g);
  Alcotest.(check int) "one mem" 1 (count_kind g (function G.Mem _ -> true | _ -> false));
  Alcotest.(check int) "one join" 1 (count_kind g (function G.Join -> true | _ -> false));
  Alcotest.(check int) "one fork" 1 (count_kind g (function G.Fork -> true | _ -> false));
  (* the mem feedback edge exists *)
  let has_update =
    List.exists (fun (e : G.edge) -> e.G.dst_port = "update") (G.edges g)
  in
  Alcotest.(check bool) "feedback edge" true has_update

let test_expand_validates_names () =
  let table = Skel.Funtable.create () in
  Alcotest.(check bool) "unknown function rejected" true
    (try
       ignore (Procnet.Expand.expand table (Skel.Ir.program "p" (Skel.Ir.Seq "nope")));
       false
     with Procnet.Expand.Expansion_error _ -> true)

let test_graph_validate_ok () =
  let g = Procnet.Expand.expand_stage (df_stage 3) in
  Alcotest.(check bool) "valid" true (Result.is_ok (G.validate g))

let test_builder_rejects_double_feed () =
  let b = G.Builder.create "bad" in
  let a = G.Builder.add_node b (G.Compute "f") in
  let c = G.Builder.add_node b (G.Compute "g") in
  let d = G.Builder.add_node b (G.Compute "h") in
  G.Builder.add_edge b a d;
  G.Builder.add_edge b c d;
  Alcotest.(check bool) "double feed rejected" true
    (try ignore (G.Builder.freeze b ~entry:a ~exit_node:d); false
     with Invalid_argument _ -> true)

let test_builder_rejects_unknown_nodes () =
  let b = G.Builder.create "bad" in
  let a = G.Builder.add_node b (G.Compute "f") in
  Alcotest.(check bool) "edge to unknown" true
    (try G.Builder.add_edge b a 7; false with Invalid_argument _ -> true)

let test_validate_detects_unreachable () =
  let b = G.Builder.create "island" in
  let a = G.Builder.add_node b (G.Compute "f") in
  let _lost = G.Builder.add_node b (G.Compute "g") in
  let g = G.Builder.freeze b ~entry:a ~exit_node:a in
  Alcotest.(check bool) "unreachable detected" true (Result.is_error (G.validate g))

let test_dot_output () =
  let g = Procnet.Expand.expand_stage (df_stage 2) in
  let dot = G.to_dot g in
  Alcotest.(check bool) "mentions master" true
    (Astring.String.is_infix ~affix:"df:a" dot);
  Alcotest.(check bool) "has edges" true (Astring.String.is_infix ~affix:"->" dot)

let test_fig1_template_counts () =
  (* Fig. 1 for n workers: the master, n workers and an M->W / W->M router
     pair on each of P1..P(n-1), joined by 4n - 2 channels. *)
  List.iter
    (fun (n, processes, channels) ->
      let g = Procnet.Templates.df_ring ~nworkers:n ~comp:"c" ~acc:"a" ~init:V.Unit in
      Alcotest.(check int) (Printf.sprintf "processes for n=%d" n) processes (G.nnodes g);
      Alcotest.(check int)
        (Printf.sprintf "channels for n=%d" n)
        channels
        (List.length (G.edges g));
      Alcotest.(check bool) "structurally valid" true (Result.is_ok (G.validate g)))
    [ (1, 2, 2); (2, 5, 6); (3, 8, 10); (4, 11, 14); (8, 23, 30) ]

let prop_df_expansion_counts =
  QCheck.Test.make ~name:"df expansion has 1 + n nodes and 2n edges" ~count:50
    (QCheck.int_range 1 32) (fun n ->
      let g = Procnet.Expand.expand_stage (df_stage n) in
      G.nnodes g = n + 1 && List.length (G.edges g) = 2 * n)

let prop_scm_expansion_counts =
  QCheck.Test.make ~name:"scm expansion has n + 2 nodes and 2n edges" ~count:50
    (QCheck.int_range 1 32) (fun n ->
      let g = Procnet.Expand.expand_stage (scm_stage n) in
      G.nnodes g = n + 2 && List.length (G.edges g) = 2 * n)

let prop_expansion_always_validates =
  QCheck.Test.make ~name:"every expansion validates" ~count:100
    QCheck.(pair (int_range 1 6) (int_range 1 6))
    (fun (n, m) ->
      let stage =
        Skel.Ir.Itermem
          {
            input = "in";
            loop = Skel.Ir.Pipe [ Skel.Ir.Seq "f"; df_stage n; scm_stage m ];
            output = "out";
            init = V.Unit;
          }
      in
      Result.is_ok (G.validate (Procnet.Expand.expand_stage stage)))

let () =
  Alcotest.run "procnet"
    [
      ( "expansion",
        [
          Alcotest.test_case "seq" `Quick test_expand_seq;
          Alcotest.test_case "pipe" `Quick test_expand_pipe;
          Alcotest.test_case "df" `Quick test_expand_df;
          Alcotest.test_case "scm" `Quick test_expand_scm;
          Alcotest.test_case "itermem" `Quick test_expand_itermem;
          Alcotest.test_case "validates names" `Quick test_expand_validates_names;
        ] );
      ( "graph",
        [
          Alcotest.test_case "validate ok" `Quick test_graph_validate_ok;
          Alcotest.test_case "double feed rejected" `Quick test_builder_rejects_double_feed;
          Alcotest.test_case "unknown nodes rejected" `Quick test_builder_rejects_unknown_nodes;
          Alcotest.test_case "unreachable detected" `Quick test_validate_detects_unreachable;
          Alcotest.test_case "dot output" `Quick test_dot_output;
        ] );
      ( "fig1 template",
        [
          Alcotest.test_case "counts" `Quick test_fig1_template_counts;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_df_expansion_counts;
          QCheck_alcotest.to_alcotest prop_scm_expansion_counts;
          QCheck_alcotest.to_alcotest prop_expansion_always_validates;
        ] );
    ]
