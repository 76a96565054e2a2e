(* Tests for Vision.Ops: pointwise operators, filters, the summed-area
   table and Otsu thresholding. *)

module I = Vision.Image
module O = Vision.Ops

let random_image seed w h =
  let rng = Support.Prng.create seed in
  let img = I.create w h in
  I.iter (fun x y _ -> I.set img x y (Support.Prng.int rng 256)) img;
  img

let test_threshold () =
  let img = I.create 2 1 in
  I.set img 0 0 99;
  I.set img 1 0 100;
  let t = O.threshold 100 img in
  Alcotest.(check int) "below" 0 (I.get t 0 0);
  Alcotest.(check int) "at threshold" 255 (I.get t 1 0)

let test_threshold_idempotent () =
  let img = random_image 1 20 20 in
  let once = O.threshold 128 img in
  let twice = O.threshold 128 once in
  Alcotest.(check bool) "idempotent" true (I.equal once twice)

let test_invert_involution () =
  let img = random_image 2 15 10 in
  Alcotest.(check bool) "invert twice" true (I.equal img (O.invert (O.invert img)))

let test_histogram_total () =
  let img = random_image 3 17 13 in
  let h = O.histogram img in
  Alcotest.(check int) "bins" 256 (Array.length h);
  Alcotest.(check int) "total" (I.size img) (Array.fold_left ( + ) 0 h)

let test_otsu_bimodal () =
  let img = I.create 20 20 in
  I.iter (fun x y _ -> I.set img x y (if x < 10 then 30 else 220)) img;
  let t = O.otsu_threshold img in
  Alcotest.(check bool) "threshold separates the modes" true (t >= 30 && t < 220)

let test_otsu_uniform () =
  let img = I.create ~init:128 8 8 in
  (* Degenerate input must still return something in range. *)
  let t = O.otsu_threshold img in
  Alcotest.(check bool) "in range" true (t >= 0 && t <= 255)

let test_convolve_identity () =
  let img = random_image 4 9 9 in
  let k = [| 0; 0; 0; 0; 1; 0; 0; 0; 0 |] in
  Alcotest.(check bool) "identity kernel" true (I.equal img (O.convolve3 k img))

let test_convolve_rejects_bad_kernel () =
  let img = I.create 3 3 in
  Alcotest.check_raises "wrong size"
    (Invalid_argument "Ops.convolve3: kernel must be 3x3") (fun () ->
      ignore (O.convolve3 [| 1; 2 |] img));
  Alcotest.check_raises "div zero" (Invalid_argument "Ops.convolve3: div = 0")
    (fun () -> ignore (O.convolve3 (Array.make 9 1) ~div:0 img))

let test_sobel_flat_is_zero () =
  let img = I.create ~init:77 10 10 in
  let s = O.sobel_magnitude img in
  Alcotest.(check int) "no gradient" 0 (I.fold ( + ) 0 s)

let test_sobel_detects_edge () =
  let img = I.create 10 10 in
  I.iter (fun x y _ -> I.set img x y (if x < 5 then 0 else 255)) img;
  let s = O.sobel_magnitude img in
  Alcotest.(check bool) "edge response" true (I.get s 5 5 > 200);
  Alcotest.(check int) "flat area silent" 0 (I.get s 1 5)

let test_box_blur_preserves_flat () =
  let img = I.create ~init:100 6 6 in
  Alcotest.(check bool) "flat stays flat" true (I.equal img (O.box_blur img))

let test_erode_dilate_ordering () =
  let img = random_image 5 12 12 in
  let e = O.erode3 img and d = O.dilate3 img in
  let ok = ref true in
  I.iter
    (fun x y v ->
      if not (I.get e x y <= v && v <= I.get d x y) then ok := false)
    img;
  Alcotest.(check bool) "erode <= id <= dilate" true !ok

let naive_rect_sum img x y w h =
  let acc = ref 0 in
  for yy = y to y + h - 1 do
    for xx = x to x + w - 1 do
      if I.in_bounds img xx yy then acc := !acc + I.get img xx yy
    done
  done;
  !acc

let test_integral_full () =
  let img = random_image 6 11 7 in
  let sat = O.integral img in
  Alcotest.(check int) "full rectangle = total" (I.fold ( + ) 0 img)
    (O.rect_sum img sat ~x:0 ~y:0 ~w:11 ~h:7)

let test_mean () =
  let img = I.create ~init:10 4 4 in
  I.set img 0 0 26;
  Alcotest.(check (float 0.001)) "mean" 11.0 (O.mean img)

let test_count_above () =
  let img = I.create 3 1 in
  I.set img 0 0 10;
  I.set img 1 0 20;
  I.set img 2 0 30;
  Alcotest.(check int) "count" 2 (O.count_above 20 img)

let test_diff_count () =
  let a = I.create ~init:5 3 3 in
  let b = I.copy a in
  I.set b 1 1 6;
  Alcotest.(check int) "one diff" 1 (O.diff_count a b);
  Alcotest.check_raises "dims" (Invalid_argument "Ops.diff_count: dimension mismatch")
    (fun () -> ignore (O.diff_count a (I.create 2 2)))

let prop_rect_sum_matches_naive =
  QCheck.Test.make ~name:"rect_sum equals naive summation" ~count:150
    QCheck.(quad (int_bound 1000) (int_range 1 15) (int_range 1 15) (pair small_nat small_nat))
    (fun (seed, w, h, (rx, ry)) ->
      let img = random_image seed w h in
      let sat = O.integral img in
      let rw = 1 + (rx mod w) and rh = 1 + (ry mod h) in
      let x = rx mod w and y = ry mod h in
      O.rect_sum img sat ~x ~y ~w:rw ~h:rh = naive_rect_sum img x y rw rh)

let prop_threshold_binary =
  QCheck.Test.make ~name:"threshold output is binary" ~count:100
    QCheck.(pair (int_bound 1000) (int_bound 255))
    (fun (seed, t) ->
      let img = random_image seed 10 10 in
      let b = O.threshold t img in
      I.fold (fun ok _ -> ok) true b
      |> fun _ ->
      let ok = ref true in
      I.iter (fun _ _ v -> if v <> 0 && v <> 255 then ok := false) b;
      !ok)


(* --- extended filters and geometry --- *)

let test_median_removes_salt () =
  let img = I.create ~init:100 9 9 in
  I.set img 4 4 255;
  let m = O.median3 img in
  Alcotest.(check int) "speck removed" 100 (I.get m 4 4)

let test_median_preserves_flat () =
  let img = I.create ~init:42 7 7 in
  Alcotest.(check bool) "flat unchanged" true (I.equal img (O.median3 img))

let test_gaussian_preserves_flat () =
  let img = I.create ~init:90 8 8 in
  Alcotest.(check bool) "flat unchanged" true (I.equal img (O.gaussian5 img))

let test_gaussian_smooths () =
  let img = I.create 11 11 in
  I.set img 5 5 255;
  let g = O.gaussian5 img in
  Alcotest.(check bool) "peak reduced" true (I.get g 5 5 < 255);
  Alcotest.(check bool) "mass spread" true (I.get g 4 5 > 0)

let test_downsample_dims_and_mean () =
  let img = I.create ~init:80 10 6 in
  let d = O.downsample2 img in
  Alcotest.(check int) "w" 5 (I.width d);
  Alcotest.(check int) "h" 3 (I.height d);
  Alcotest.(check int) "average preserved" 80 (I.get d 2 1)

let test_upsample_then_downsample () =
  let img = random_image 9 6 5 in
  let back = O.downsample2 (O.upsample2 img) in
  Alcotest.(check bool) "roundtrip identity" true (I.equal img back)

let test_flips_are_involutions () =
  let img = random_image 10 9 7 in
  Alcotest.(check bool) "horizontal" true
    (I.equal img (O.flip_horizontal (O.flip_horizontal img)));
  Alcotest.(check bool) "vertical" true
    (I.equal img (O.flip_vertical (O.flip_vertical img)))

let test_rotate90_four_times () =
  let img = random_image 11 7 5 in
  let r4 = O.rotate90 (O.rotate90 (O.rotate90 (O.rotate90 img))) in
  Alcotest.(check bool) "identity" true (I.equal img r4);
  let r1 = O.rotate90 img in
  Alcotest.(check int) "dims swap" (I.height img) (I.width r1)

let test_rotate90_corner () =
  let img = I.create 3 2 in
  I.set img 0 0 200;
  let r = O.rotate90 img in
  (* clockwise: top-left goes to top-right *)
  Alcotest.(check int) "corner moved" 200 (I.get r 1 0)

let test_equalize_constant_identity () =
  let img = I.create ~init:17 6 6 in
  Alcotest.(check bool) "constant unchanged" true (I.equal img (O.equalize img))

let test_equalize_spreads_histogram () =
  (* Two tight clusters spread towards the extremes. *)
  let img = I.create 10 10 in
  I.iter (fun x y _ -> I.set img x y (if (x + y) mod 2 = 0 then 100 else 110)) img;
  let e = O.equalize img in
  Alcotest.(check bool) "low cluster at 0" true (I.get e 0 0 < 10);
  Alcotest.(check bool) "high cluster at 255" true (I.get e 1 0 > 245)

(* --- drawing --- *)

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
  Vision.Draw.line img ~x0:(-5) ~y0:(-5) ~x1:10 ~y1:10 50;
  Alcotest.(check int) "diagonal drawn where visible" 50 (I.get img 2 2)

let test_draw_line_endpoints () =
  let img = I.create 8 8 in
  Vision.Draw.line img ~x0:1 ~y0:1 ~x1:6 ~y1:4 255;
  Alcotest.(check int) "start" 255 (I.get img 1 1);
  Alcotest.(check int) "end" 255 (I.get img 6 4)

let test_draw_disc_radius () =
  let img = I.create 11 11 in
  Vision.Draw.disc img ~x:5 ~y:5 ~r:3 255;
  Alcotest.(check int) "centre" 255 (I.get img 5 5);
  Alcotest.(check int) "edge inside" 255 (I.get img 8 5);
  Alcotest.(check int) "outside" 0 (I.get img 9 5)

let prop_median_bounded_by_neighbourhood =
  QCheck.Test.make ~name:"median output within min/max of image" ~count:60
    (QCheck.int_bound 1000) (fun seed ->
      let img = random_image seed 12 12 in
      let lo = I.fold min 255 img and hi = I.fold max 0 img in
      let m = O.median3 img in
      I.fold (fun ok v -> ok && v >= lo && v <= hi) true m
      |> fun _ ->
      let ok = ref true in
      I.iter (fun _ _ v -> if v < lo || v > hi then ok := false) m;
      !ok)

(* The 3x3 kernels as they were before the unchecked rewrite: every read
   clamps its coordinates and goes through the bounds-checked accessors. *)
module Reference = struct
  let clamp_coord v lo hi = if v < lo then lo else if v > hi then hi else v

  let convolve3 kernel ?(div = 1) img =
    let w = I.width img and h = I.height img in
    let dst = I.create w h in
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        let acc = ref 0 in
        for ky = -1 to 1 do
          for kx = -1 to 1 do
            let sx = clamp_coord (x + kx) 0 (w - 1)
            and sy = clamp_coord (y + ky) 0 (h - 1) in
            acc := !acc + (kernel.(((ky + 1) * 3) + kx + 1) * I.get img sx sy)
          done
        done;
        I.set dst x y (!acc / div)
      done
    done;
    dst

  let sobel_magnitude img =
    let w = I.width img and h = I.height img in
    let dst = I.create w h in
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        let p dx dy =
          I.get img (clamp_coord (x + dx) 0 (w - 1)) (clamp_coord (y + dy) 0 (h - 1))
        in
        let gx =
          -p (-1) (-1) + p 1 (-1) - (2 * p (-1) 0) + (2 * p 1 0) - p (-1) 1 + p 1 1
        and gy =
          -p (-1) (-1) - (2 * p 0 (-1)) - p 1 (-1) + p (-1) 1 + (2 * p 0 1) + p 1 1
        in
        I.set dst x y (abs gx + abs gy)
      done
    done;
    dst

  let morph3 select img =
    let w = I.width img and h = I.height img in
    let dst = I.create w h in
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        let best = ref (I.get img x y) in
        for ky = -1 to 1 do
          for kx = -1 to 1 do
            let sx = clamp_coord (x + kx) 0 (w - 1)
            and sy = clamp_coord (y + ky) 0 (h - 1) in
            best := select !best (I.get img sx sy)
          done
        done;
        I.set dst x y !best
      done
    done;
    dst
end

let arbitrary_filter_case =
  QCheck.make
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 and* w = int_range 1 40 and* h = int_range 1 40 in
      let* kernel = array_size (return 9) (int_range (-8) 8) in
      let* div = oneof [ int_range 1 16; int_range (-9) (-1) ] in
      return (seed, w, h, kernel, div))
    ~print:(fun (seed, w, h, kernel, div) ->
      Printf.sprintf "seed=%d %dx%d kernel=[%s] div=%d" seed w h
        (String.concat ";" (Array.to_list (Array.map string_of_int kernel)))
        div)

let prop_filters_match_reference =
  QCheck.Test.make ~name:"3x3 kernels equal the bounds-checked reference" ~count:300
    arbitrary_filter_case (fun (seed, w, h, kernel, div) ->
      let img = random_image seed w h in
      I.equal (O.convolve3 kernel ~div img) (Reference.convolve3 kernel ~div img)
      && I.equal (O.box_blur img)
           (Reference.convolve3 [| 1; 1; 1; 1; 1; 1; 1; 1; 1 |] ~div:9 img)
      && I.equal (O.sobel_magnitude img) (Reference.sobel_magnitude img)
      && I.equal (O.erode3 img) (Reference.morph3 min img)
      && I.equal (O.dilate3 img) (Reference.morph3 max img))

let () =
  Alcotest.run "ops"
    [
      ( "pointwise",
        [
          Alcotest.test_case "threshold" `Quick test_threshold;
          Alcotest.test_case "threshold idempotent" `Quick test_threshold_idempotent;
          Alcotest.test_case "invert involution" `Quick test_invert_involution;
          Alcotest.test_case "histogram total" `Quick test_histogram_total;
          Alcotest.test_case "otsu bimodal" `Quick test_otsu_bimodal;
          Alcotest.test_case "otsu uniform" `Quick test_otsu_uniform;
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "count_above" `Quick test_count_above;
          Alcotest.test_case "diff_count" `Quick test_diff_count;
        ] );
      ( "filters",
        [
          Alcotest.test_case "convolve identity" `Quick test_convolve_identity;
          Alcotest.test_case "convolve bad kernel" `Quick test_convolve_rejects_bad_kernel;
          Alcotest.test_case "sobel flat" `Quick test_sobel_flat_is_zero;
          Alcotest.test_case "sobel edge" `Quick test_sobel_detects_edge;
          Alcotest.test_case "box blur flat" `Quick test_box_blur_preserves_flat;
          Alcotest.test_case "erode/dilate ordering" `Quick test_erode_dilate_ordering;
          QCheck_alcotest.to_alcotest prop_filters_match_reference;
        ] );
      ( "extended",
        [
          Alcotest.test_case "median removes salt" `Quick test_median_removes_salt;
          Alcotest.test_case "median preserves flat" `Quick test_median_preserves_flat;
          Alcotest.test_case "gaussian preserves flat" `Quick test_gaussian_preserves_flat;
          Alcotest.test_case "gaussian smooths" `Quick test_gaussian_smooths;
          Alcotest.test_case "downsample dims and mean" `Quick test_downsample_dims_and_mean;
          Alcotest.test_case "up/down roundtrip" `Quick test_upsample_then_downsample;
          Alcotest.test_case "flips are involutions" `Quick test_flips_are_involutions;
          Alcotest.test_case "rotate90 x4" `Quick test_rotate90_four_times;
          Alcotest.test_case "rotate90 corner" `Quick test_rotate90_corner;
          Alcotest.test_case "equalize constant" `Quick test_equalize_constant_identity;
          Alcotest.test_case "equalize spreads" `Quick test_equalize_spreads_histogram;
          QCheck_alcotest.to_alcotest prop_median_bounded_by_neighbourhood;
        ] );
      ( "draw",
        [
          Alcotest.test_case "rect outline" `Quick test_draw_rect_outline;
          Alcotest.test_case "clipping" `Quick test_draw_clips;
          Alcotest.test_case "line endpoints" `Quick test_draw_line_endpoints;
          Alcotest.test_case "disc radius" `Quick test_draw_disc_radius;
        ] );
      ( "integral",
        [
          Alcotest.test_case "full rectangle" `Quick test_integral_full;
          QCheck_alcotest.to_alcotest prop_rect_sum_matches_naive;
          QCheck_alcotest.to_alcotest prop_threshold_binary;
        ] );
    ]
