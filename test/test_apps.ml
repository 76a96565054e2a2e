(* Tests for the companion applications: scm CCL, road following and the tf
   quadtree. *)

module V = Skel.Value

(* ------------------------------------------------------------------ *)
(* CCL via scm                                                         *)

let ccl_table () =
  let t = Skel.Funtable.create () in
  Apps.Ccl_scm.register t;
  t

let test_labelling_roundtrip () =
  let img = Apps.Ccl_scm.blobs_image ~seed:5 ~nblobs:8 40 30 in
  let lab = Vision.Ccl.label ~threshold:128 img in
  let lab' = Apps.Ccl_scm.decode_labelling (Apps.Ccl_scm.encode_labelling lab) in
  Alcotest.(check bool) "roundtrip" true (Vision.Ccl.equivalent lab lab');
  Alcotest.(check int) "ncomponents preserved" lab.Vision.Ccl.ncomponents
    lab'.Vision.Ccl.ncomponents

let test_decode_rejects_corrupt () =
  let bad =
    V.Record
      [ ("width", V.Int 4); ("height", V.Int 4); ("ncomponents", V.Int 0);
        ("labels", V.Str "xy") ]
  in
  Alcotest.(check bool) "size mismatch" true
    (try ignore (Apps.Ccl_scm.decode_labelling bad); false with V.Type_error _ -> true)

let test_ccl_scm_matches_direct () =
  let img = Apps.Ccl_scm.blobs_image ~seed:21 ~nblobs:25 128 96 in
  let direct = Vision.Ccl.label ~threshold:128 img in
  List.iter
    (fun nparts ->
      let table = ccl_table () in
      let result =
        Skel.Sem.run table (Apps.Ccl_scm.ir ~nparts) (V.Image img)
      in
      let n, area = Apps.Ccl_scm.result_summary result in
      Alcotest.(check int)
        (Printf.sprintf "%d bands component count" nparts)
        direct.Vision.Ccl.ncomponents n;
      Alcotest.(check int) "area"
        (Vision.Image.fold (fun n v -> if v >= 128 then n + 1 else n) 0 img)
        area)
    [ 1; 2; 4; 6 ]

let test_ccl_scm_parallel_equals_sequential () =
  let img = Apps.Ccl_scm.blobs_image ~seed:9 ~nblobs:15 96 96 in
  let table = ccl_table () in
  let prog = Apps.Ccl_scm.ir ~nparts:4 in
  let seq = Skel.Sem.run table prog (V.Image img) in
  let g = Procnet.Expand.expand table prog in
  let arch = Archi.ring 5 in
  let r =
    Executive.run ~table ~arch
      ~placement:(Syndex.Place.canonical g arch)
      ~graph:g ~frames:1 ~input:(V.Image img) ()
  in
  Alcotest.(check bool) "equal" true (V.equal seq r.Executive.value)

let test_ccl_split_rejects_short_image () =
  let table = ccl_table () in
  let img = Vision.Image.create 8 2 in
  Alcotest.(check bool) "too many bands" true
    (try
       ignore
         (Skel.Funtable.apply table "ccl_split" (V.Tuple [ V.Int 5; V.Image img ]));
       false
     with V.Type_error _ -> true)

let test_ccl_source_compiles () =
  let table = ccl_table () in
  let compiled =
    Skipper_lib.Pipeline.compile_source ~table (Apps.Ccl_scm.source ~nparts:3)
  in
  match compiled.Skipper_lib.Pipeline.program.Skel.Ir.body with
  | Skel.Ir.Scm { nparts = 3; _ } -> ()
  | _ -> Alcotest.fail "expected an scm body"

let prop_ccl_scm_any_bands =
  QCheck.Test.make ~name:"scm CCL equals direct labelling for any band count"
    ~count:30
    QCheck.(triple (int_bound 1000) (int_range 1 8) (int_range 20 60))
    (fun (seed, nparts, size) ->
      let img = Apps.Ccl_scm.blobs_image ~seed ~nblobs:10 size size in
      QCheck.assume (nparts <= size);
      let direct = Vision.Ccl.label ~threshold:128 img in
      let table = ccl_table () in
      let result = Skel.Sem.run table (Apps.Ccl_scm.ir ~nparts) (V.Image img) in
      fst (Apps.Ccl_scm.result_summary result) = direct.Vision.Ccl.ncomponents)

(* ------------------------------------------------------------------ *)
(* Road following                                                      *)

let road_table ~width ~height () =
  let t = Skel.Funtable.create () in
  Apps.Road.register ~width ~height t;
  t

let test_road_fit_recovers_line () =
  (* Synthetic points on x = 100 + 0.5 * t (t rows from bottom). *)
  let height = 120 and width = 400 in
  let points =
    List.init 60 (fun i ->
        let y = height - 1 - i in
        (y, 100.0 +. (0.5 *. float_of_int i)))
  in
  let lane = Apps.Road.fit ~width ~height points in
  Alcotest.(check (float 0.01)) "offset" 100.0 lane.Apps.Road.offset;
  Alcotest.(check (float 0.001)) "slope" 0.5 lane.Apps.Road.slope;
  Alcotest.(check bool) "confident" true (lane.Apps.Road.confidence > 0.5)

let test_road_fit_degenerate () =
  let lane = Apps.Road.fit ~width:200 ~height:100 [] in
  Alcotest.(check (float 0.001)) "centre fallback" 100.0 lane.Apps.Road.offset;
  Alcotest.(check (float 0.0)) "no confidence" 0.0 lane.Apps.Road.confidence

let test_road_detect_rows () =
  (* A vertical bright line at x=30 in a dark strip. *)
  let strip = Vision.Image.create 64 10 in
  for y = 0 to 9 do
    Vision.Image.set strip 30 y 255
  done;
  let points = Apps.Road.detect_rows strip ~y0:100 in
  Alcotest.(check int) "every row" 10 (List.length points);
  List.iter
    (fun (y, x) ->
      Alcotest.(check bool) "row offset applied" true (y >= 100 && y < 110);
      Alcotest.(check (float 0.01)) "line position" 30.0 x)
    points

let test_road_pipeline_stays_centred () =
  let width = 256 and height = 256 in
  let table = road_table ~width ~height () in
  let prog = Apps.Road.ir ~frames:6 ~nstrips:4 () in
  match Skel.Sem.run table prog (Apps.Road.input_value ~width ~height) with
  | V.Tuple [ _; V.List outs ] ->
      List.iter
        (fun lane_v ->
          let lane = Apps.Road.lane_of_value lane_v in
          Alcotest.(check bool) "offset near centre" true
            (abs_float (lane.Apps.Road.offset -. 128.0) < 40.0))
        outs
  | v -> Alcotest.failf "unexpected %s" (V.to_string v)

let test_road_parallel_equals_sequential () =
  let width = 256 and height = 256 in
  let prog = Apps.Road.ir ~frames:4 ~nstrips:4 () in
  let input = Apps.Road.input_value ~width ~height in
  let seq = Skel.Sem.run (road_table ~width ~height ()) prog input in
  let table = road_table ~width ~height () in
  let g = Procnet.Expand.expand table prog in
  let arch = Archi.ring 5 in
  let r =
    Executive.run ~table ~arch
      ~placement:(Syndex.Place.canonical g arch)
      ~graph:g ~frames:4 ~input ()
  in
  Alcotest.(check bool) "equal" true (V.equal seq r.Executive.value)

let test_road_lane_roundtrip () =
  let lane = { Apps.Road.offset = 12.5; slope = -0.25; confidence = 0.8 } in
  let lane' = Apps.Road.lane_of_value (Apps.Road.lane_to_value lane) in
  Alcotest.(check (float 0.0)) "offset" lane.Apps.Road.offset lane'.Apps.Road.offset;
  Alcotest.(check (float 0.0)) "slope" lane.Apps.Road.slope lane'.Apps.Road.slope

(* ------------------------------------------------------------------ *)
(* Quadtree via tf                                                     *)

let quad_table () =
  let t = Skel.Funtable.create () in
  Apps.Quadtree.register t;
  t

let leaves_cover_exactly ~width ~height leaves =
  let covered = Array.make (width * height) 0 in
  List.iter
    (fun (r : Apps.Quadtree.region) ->
      for y = r.Apps.Quadtree.y to r.Apps.Quadtree.y + r.Apps.Quadtree.h - 1 do
        for x = r.Apps.Quadtree.x to r.Apps.Quadtree.x + r.Apps.Quadtree.w - 1 do
          covered.((y * width) + x) <- covered.((y * width) + x) + 1
        done
      done)
    leaves;
  Array.for_all (( = ) 1) covered

let test_quadtree_flat_image_single_leaf () =
  let img = Vision.Image.create ~init:50 64 64 in
  let table = quad_table () in
  let result = Skel.Sem.run table (Apps.Quadtree.ir ~nworkers:2) (V.Image img) in
  match Apps.Quadtree.leaves_of_value result with
  | [ leaf ] ->
      Alcotest.(check int) "whole image" (64 * 64)
        (leaf.Apps.Quadtree.w * leaf.Apps.Quadtree.h);
      Alcotest.(check (float 0.01)) "mean" 50.0 leaf.Apps.Quadtree.mean
  | leaves -> Alcotest.failf "expected 1 leaf, got %d" (List.length leaves)

let test_quadtree_splits_heterogeneous () =
  let img = Vision.Image.create 64 64 in
  (* left half dark, right half bright -> must split *)
  Vision.Image.iter (fun x y _ -> Vision.Image.set img x y (if x < 32 then 10 else 200)) img;
  let table = quad_table () in
  let result = Skel.Sem.run table (Apps.Quadtree.ir ~nworkers:3) (V.Image img) in
  let leaves = Apps.Quadtree.leaves_of_value result in
  Alcotest.(check bool) "splits" true (List.length leaves > 1);
  Alcotest.(check bool) "tiles exactly" true
    (leaves_cover_exactly ~width:64 ~height:64 leaves)

let test_quadtree_parallel_equals_sequential () =
  let img = Apps.Ccl_scm.blobs_image ~seed:14 ~nblobs:6 64 64 in
  let prog = Apps.Quadtree.ir ~nworkers:4 in
  let seq = Skel.Sem.run (quad_table ()) prog (V.Image img) in
  let table = quad_table () in
  let g = Procnet.Expand.expand table prog in
  let arch = Archi.ring 5 in
  let r =
    Executive.run ~table ~arch
      ~placement:(Syndex.Place.canonical g arch)
      ~graph:g ~frames:1 ~input:(V.Image img) ()
  in
  Alcotest.(check bool) "equal" true (V.equal seq r.Executive.value)

let prop_quadtree_tiles_exactly =
  QCheck.Test.make ~name:"quadtree leaves tile the image exactly" ~count:25
    QCheck.(pair (int_bound 1000) (int_range 16 64))
    (fun (seed, size) ->
      let img = Apps.Ccl_scm.blobs_image ~seed ~nblobs:5 size size in
      let table = quad_table () in
      let result = Skel.Sem.run table (Apps.Quadtree.ir ~nworkers:2) (V.Image img) in
      leaves_cover_exactly ~width:size ~height:size
        (Apps.Quadtree.leaves_of_value result))

let () =
  Alcotest.run "apps"
    [
      ( "ccl-scm",
        [
          Alcotest.test_case "labelling roundtrip" `Quick test_labelling_roundtrip;
          Alcotest.test_case "decode rejects corrupt" `Quick test_decode_rejects_corrupt;
          Alcotest.test_case "matches direct labelling" `Quick test_ccl_scm_matches_direct;
          Alcotest.test_case "parallel equals sequential" `Quick test_ccl_scm_parallel_equals_sequential;
          Alcotest.test_case "split rejects short image" `Quick test_ccl_split_rejects_short_image;
          Alcotest.test_case "source compiles" `Quick test_ccl_source_compiles;
          QCheck_alcotest.to_alcotest prop_ccl_scm_any_bands;
        ] );
      ( "road",
        [
          Alcotest.test_case "fit recovers line" `Quick test_road_fit_recovers_line;
          Alcotest.test_case "fit degenerate" `Quick test_road_fit_degenerate;
          Alcotest.test_case "detect rows" `Quick test_road_detect_rows;
          Alcotest.test_case "pipeline stays centred" `Quick test_road_pipeline_stays_centred;
          Alcotest.test_case "parallel equals sequential" `Quick test_road_parallel_equals_sequential;
          Alcotest.test_case "lane roundtrip" `Quick test_road_lane_roundtrip;
        ] );
      ( "quadtree",
        [
          Alcotest.test_case "flat image single leaf" `Quick test_quadtree_flat_image_single_leaf;
          Alcotest.test_case "splits heterogeneous" `Quick test_quadtree_splits_heterogeneous;
          Alcotest.test_case "parallel equals sequential" `Quick test_quadtree_parallel_equals_sequential;
          QCheck_alcotest.to_alcotest prop_quadtree_tiles_exactly;
        ] );
    ]
