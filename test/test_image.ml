(* Tests for Vision.Image (accessors, sub clipping, band splitting,
   the PGM writer) and for the Ops and Draw helpers built on it. *)

module I = Vision.Image

let random_image rng w h =
  let img = I.create w h in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      I.set img x y (Support.Prng.int rng 256)
    done
  done;
  img

let test_create_and_fill () =
  let img = I.create ~init:7 4 3 in
  Alcotest.(check int) "width" 4 (I.width img);
  Alcotest.(check int) "height" 3 (I.height img);
  Alcotest.(check int) "size" 12 (I.size img);
  Alcotest.(check int) "init value" 7 (I.get img 2 1)

let test_create_rejects_bad_args () =
  Alcotest.check_raises "zero width"
    (Invalid_argument "Image.create: non-positive dimensions") (fun () ->
      ignore (I.create 0 5));
  Alcotest.check_raises "bad init"
    (Invalid_argument "Image.create: init out of range") (fun () ->
      ignore (I.create ~init:300 5 5))

let test_unsafe_create_rejects_bad_args () =
  Alcotest.check_raises "zero height"
    (Invalid_argument "Image.unsafe_create: non-positive dimensions") (fun () ->
      ignore (I.unsafe_create 5 0));
  let img = I.unsafe_create 3 2 in
  Alcotest.(check (pair int int)) "dimensions" (3, 2) (I.width img, I.height img)

let test_get_set_bounds () =
  let img = I.create 4 4 in
  Alcotest.(check bool) "in bounds" true (I.in_bounds img 3 3);
  Alcotest.(check bool) "out of bounds" false (I.in_bounds img 4 0);
  (try
     ignore (I.get img 4 0);
     Alcotest.fail "expected exception"
   with Invalid_argument _ -> ())

let test_set_clamps () =
  let img = I.create 2 2 in
  I.set img 0 0 999;
  Alcotest.(check int) "clamped high" 255 (I.get img 0 0);
  I.set img 0 0 (-5);
  Alcotest.(check int) "clamped low" 0 (I.get img 0 0)

let test_sub_contents () =
  let img = I.create 8 8 in
  I.iter (fun x y _ -> I.set img x y ((x * 10) + y)) img;
  let sub = I.sub img ~x:2 ~y:3 ~w:3 ~h:2 in
  Alcotest.(check int) "sub width" 3 (I.width sub);
  Alcotest.(check int) "sub height" 2 (I.height sub);
  Alcotest.(check int) "sub (0,0)" (I.get img 2 3) (I.get sub 0 0);
  Alcotest.(check int) "sub (2,1)" (I.get img 4 4) (I.get sub 2 1)

let test_sub_clips () =
  let img = I.create ~init:9 4 4 in
  let sub = I.sub img ~x:2 ~y:2 ~w:10 ~h:10 in
  Alcotest.(check int) "clipped width" 2 (I.width sub);
  Alcotest.(check int) "clipped height" 2 (I.height sub);
  Alcotest.check_raises "empty rect" (Invalid_argument "Image.sub: empty rectangle")
    (fun () -> ignore (I.sub img ~x:10 ~y:10 ~w:2 ~h:2))

let test_map_and_fold () =
  let img = I.create ~init:10 3 3 in
  let doubled = I.map (fun v -> v * 2) img in
  Alcotest.(check int) "mapped" 20 (I.get doubled 1 1);
  Alcotest.(check int) "original untouched" 10 (I.get img 1 1);
  Alcotest.(check int) "fold sum" (9 * 10) (I.fold ( + ) 0 img)

let test_mapi () =
  let img = I.create 3 2 in
  let coded = I.mapi (fun x y _ -> x + (10 * y)) img in
  Alcotest.(check int) "mapi (2,1)" 12 (I.get coded 2 1)

let test_row_bands_partition () =
  let img = I.create 4 10 in
  let bands = I.row_bands img 3 in
  Alcotest.(check int) "3 bands" 3 (List.length bands);
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 bands in
  Alcotest.(check int) "covers all rows" 10 total;
  let heights = List.map snd bands in
  let mn = List.fold_left min max_int heights and mx = List.fold_left max 0 heights in
  Alcotest.(check bool) "balanced" true (mx - mn <= 1)

let test_extract_band () =
  let img = I.create 4 6 in
  I.iter (fun x y _ -> I.set img x y y) img;
  let band = I.extract_band img (2, 3) in
  Alcotest.(check int) "band height" 3 (I.height band);
  Alcotest.(check int) "band first row" 2 (I.get band 0 0)

let test_pgm_file_io () =
  let img = random_image (Support.Prng.create 3) 16 16 in
  let path = Filename.temp_file "skipper_test" ".pgm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      I.save_pgm img path;
      Alcotest.(check string) "P5 header, then the raster"
        ("P5\n16 16\n255\n" ^ Bytes.to_string img.I.data)
        (In_channel.with_open_bin path In_channel.input_all))

let test_invert_involution () =
  let img = random_image (Support.Prng.create 2) 15 10 in
  Alcotest.(check bool) "invert twice" true
    (I.equal img (Vision.Ops.invert (Vision.Ops.invert img)))

let test_mean () =
  let img = I.create ~init:10 4 4 in
  I.set img 0 0 26;
  Alcotest.(check (float 0.001)) "mean" 11.0 (Vision.Ops.mean img)

let test_draw_rect_outline () =
  let img = I.create 10 10 in
  Vision.Draw.rect img ~x:2 ~y:2 ~w:5 ~h:4 200;
  Alcotest.(check int) "corner" 200 (I.get img 2 2);
  Alcotest.(check int) "far corner" 200 (I.get img 6 5);
  Alcotest.(check int) "interior untouched" 0 (I.get img 4 3)

let test_draw_clips () =
  let img = I.create 4 4 in
  (* entirely off-image: must not raise *)
  Vision.Draw.rect img ~x:(-10) ~y:(-10) ~w:5 ~h:5 99;
  Vision.Draw.cross img ~x:100 ~y:100 ~size:5 99;
  Alcotest.(check int) "nothing drawn" 0 (I.fold ( + ) 0 img);
  (* partly off-image: the visible sides are drawn *)
  Vision.Draw.rect img ~x:(-2) ~y:(-2) ~w:5 ~h:5 50;
  Alcotest.(check int) "visible corner drawn" 50 (I.get img 2 2);
  Alcotest.(check int) "visible edge drawn" 50 (I.get img 0 2);
  Alcotest.(check int) "outside the outline" 0 (I.get img 3 3)

let test_equal () =
  let a = I.create ~init:1 2 2 and b = I.create ~init:1 2 2 in
  Alcotest.(check bool) "equal" true (I.equal a b);
  I.set b 0 0 2;
  Alcotest.(check bool) "unequal content" false (I.equal a b);
  Alcotest.(check bool) "unequal dims" false (I.equal a (I.create 2 3))

let image_gen =
  QCheck.Gen.(
    map3
      (fun w h seed ->
        let rng = Support.Prng.create seed in
        random_image rng (1 + w) (1 + h))
      (int_bound 20) (int_bound 20) (int_bound 10_000))

let arbitrary_image =
  QCheck.make image_gen ~print:(fun img ->
      Printf.sprintf "<image %dx%d>" (I.width img) (I.height img))

let prop_row_bands =
  QCheck.Test.make ~name:"row bands partition the image" ~count:100
    QCheck.(pair arbitrary_image (int_range 1 16))
    (fun (img, n) ->
      let bands = I.row_bands img n in
      let total = List.fold_left (fun acc (_, r) -> acc + r) 0 bands in
      let contiguous =
        fst
          (List.fold_left
             (fun (ok, expect) (y0, r) -> (ok && y0 = expect, y0 + r))
             (true, 0) bands)
      in
      total = I.height img && contiguous)

let prop_sub_matches_source =
  QCheck.Test.make ~name:"sub pixels match the source" ~count:100
    QCheck.(pair arbitrary_image (pair (int_bound 10) (int_bound 10)))
    (fun (img, (x, y)) ->
      QCheck.assume (x < I.width img && y < I.height img);
      let sub = I.sub img ~x ~y ~w:(I.width img - x) ~h:(I.height img - y) in
      let ok = ref true in
      I.iter (fun sx sy v -> if I.get img (x + sx) (y + sy) <> v then ok := false) sub;
      !ok)

let () =
  Alcotest.run "image"
    [
      ( "basics",
        [
          Alcotest.test_case "create and fill" `Quick test_create_and_fill;
          Alcotest.test_case "create rejects bad args" `Quick test_create_rejects_bad_args;
          Alcotest.test_case "unsafe_create rejects bad args" `Quick
            test_unsafe_create_rejects_bad_args;
          Alcotest.test_case "get/set bounds" `Quick test_get_set_bounds;
          Alcotest.test_case "set clamps" `Quick test_set_clamps;
          Alcotest.test_case "equal" `Quick test_equal;
        ] );
      ( "regions",
        [
          Alcotest.test_case "sub contents" `Quick test_sub_contents;
          Alcotest.test_case "sub clips" `Quick test_sub_clips;
          Alcotest.test_case "row bands partition" `Quick test_row_bands_partition;
          Alcotest.test_case "extract band" `Quick test_extract_band;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "map and fold" `Quick test_map_and_fold;
          Alcotest.test_case "mapi" `Quick test_mapi;
        ] );
      ( "pgm",
        [
          Alcotest.test_case "file io" `Quick test_pgm_file_io;
        ] );
      ( "pointwise",
        [
          Alcotest.test_case "invert involution" `Quick test_invert_involution;
          Alcotest.test_case "mean" `Quick test_mean;
        ] );
      ( "draw",
        [
          Alcotest.test_case "rect outline" `Quick test_draw_rect_outline;
          Alcotest.test_case "clipping" `Quick test_draw_clips;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_row_bands;
          QCheck_alcotest.to_alcotest prop_sub_matches_source;
        ] );
    ]
