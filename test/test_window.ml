(* Tests for windows of interest. *)

module W = Vision.Window
module I = Vision.Image

let test_make_rejects_empty () =
  Alcotest.check_raises "zero width"
    (Invalid_argument "Window.make: non-positive dimensions") (fun () ->
      ignore (W.make ~x:0 ~y:0 ~w:0 ~h:3))

let test_area_contains () =
  let w = W.make ~x:2 ~y:4 ~w:6 ~h:8 in
  Alcotest.(check int) "area" 48 (W.area w);
  Alcotest.(check bool) "contains corner" true (W.contains w 2 4);
  Alcotest.(check bool) "excludes far edge" false (W.contains w 8 4)

let test_clip () =
  let w = W.make ~x:(-3) ~y:(-3) ~w:10 ~h:10 in
  (match W.clip w ~width:5 ~height:5 with
  | Some c ->
      Alcotest.(check int) "clipped x" 0 c.W.x;
      Alcotest.(check int) "clipped w" 5 c.W.w
  | None -> Alcotest.fail "clip inside");
  Alcotest.(check bool) "fully outside" true
    (W.clip (W.make ~x:100 ~y:100 ~w:5 ~h:5) ~width:50 ~height:50 = None)

let test_tile_count_and_bounds () =
  List.iter
    (fun n ->
      let tiles = W.tile ~width:512 ~height:512 n in
      Alcotest.(check int) (Printf.sprintf "%d tiles" n) n (List.length tiles);
      List.iter
        (fun t ->
          Alcotest.(check bool) "tile in bounds" true
            (t.W.x >= 0 && t.W.y >= 0 && t.W.x + t.W.w <= 512 && t.W.y + t.W.h <= 512))
        tiles)
    [ 1; 2; 3; 4; 8; 9; 16 ]

let test_extract () =
  let img = I.create 8 8 in
  I.iter (fun x y _ -> I.set img x y (x + y)) img;
  let sub = W.extract img (W.make ~x:2 ~y:2 ~w:3 ~h:3) in
  Alcotest.(check int) "extract content" 4 (I.get sub 0 0);
  Alcotest.check_raises "outside" (Invalid_argument "Window.extract: window outside image")
    (fun () -> ignore (W.extract img (W.make ~x:20 ~y:20 ~w:2 ~h:2)))

let prop_tile_covers_area =
  QCheck.Test.make ~name:"tiles cover the full image area" ~count:100
    QCheck.(triple (int_range 1 20) (int_range 8 100) (int_range 8 100))
    (fun (n, width, height) ->
      let tiles = W.tile ~width ~height n in
      (* Tiles may overlap at remainder edges but must cover every pixel. *)
      let covered = Array.make_matrix width height false in
      List.iter
        (fun t ->
          for y = t.W.y to min (height - 1) (t.W.y + t.W.h - 1) do
            for x = t.W.x to min (width - 1) (t.W.x + t.W.w - 1) do
              covered.(x).(y) <- true
            done
          done)
        tiles;
      Array.for_all (fun col -> Array.for_all Fun.id col) covered)

let prop_clip_idempotent =
  QCheck.Test.make ~name:"clip is idempotent" ~count:200
    QCheck.(
      quad (int_range (-20) 60) (int_range (-20) 60) (int_range 1 40) (int_range 1 40))
    (fun (x, y, w, h) ->
      match W.clip (W.make ~x ~y ~w ~h) ~width:50 ~height:50 with
      | None -> true
      | Some c -> W.clip c ~width:50 ~height:50 = Some c)

let () =
  Alcotest.run "window"
    [
      ( "basics",
        [
          Alcotest.test_case "make rejects empty" `Quick test_make_rejects_empty;
          Alcotest.test_case "area/contains" `Quick test_area_contains;
          Alcotest.test_case "clip" `Quick test_clip;
        ] );
      ( "tiling",
        [
          Alcotest.test_case "tile count and bounds" `Quick test_tile_count_and_bounds;
          Alcotest.test_case "extract" `Quick test_extract;
          QCheck_alcotest.to_alcotest prop_tile_covers_area;
          QCheck_alcotest.to_alcotest prop_clip_idempotent;
        ] );
    ]
