(* Tests for the synthetic scene generator: determinism, mark visibility and
   separability, occlusions, and the road view. *)

module S = Vision.Scene
module I = Vision.Image

let params = { S.default_params with S.width = 256; height = 256 }

let test_frame_deterministic () =
  let a = S.frame params 5 and b = S.frame params 5 in
  Alcotest.(check bool) "same frame twice" true (I.equal a b)

let test_frames_differ () =
  let a = S.frame params 0 and b = S.frame params 20 in
  Alcotest.(check bool) "motion changes frames" false (I.equal a b)

let test_marks_bright_background_dark () =
  let img = S.frame params 3 in
  let marks = S.ground_truth_marks params 3 in
  Alcotest.(check int) "3 marks per vehicle" (3 * params.S.nvehicles)
    (List.length marks);
  List.iter
    (fun (mx, my) ->
      let x = int_of_float mx and y = int_of_float my in
      if I.in_bounds img x y then
        Alcotest.(check bool) "mark centre bright" true (I.get img x y >= 220))
    marks

let test_threshold_isolates_marks () =
  let img = S.frame params 7 in
  let lab = Vision.Ccl.label ~threshold:200 img in
  (* Every component should be a mark; there are nvehicles * 3 of them. *)
  let big =
    List.filter (fun r -> r.Vision.Ccl.area >= 6) (Vision.Ccl.regions lab)
  in
  Alcotest.(check int) "component per mark" (3 * params.S.nvehicles)
    (List.length big)

let test_detection_matches_ground_truth () =
  let img = S.frame params 9 in
  let truth = S.ground_truth_marks params 9 in
  let regions =
    Vision.Ccl.detect_regions ~threshold:200 img
    |> List.filter (fun r -> r.Vision.Ccl.area >= 6)
  in
  List.iter
    (fun (mx, my) ->
      let close =
        List.exists
          (fun r ->
            let dx = r.Vision.Ccl.cx -. mx and dy = r.Vision.Ccl.cy -. my in
            sqrt ((dx *. dx) +. (dy *. dy)) < 3.0)
          regions
      in
      Alcotest.(check bool) "ground-truth mark detected nearby" true close)
    truth

let test_occlusion_hides_vehicle () =
  let p = { params with S.occlusion_period = 10; nvehicles = 1 } in
  (* frames 0-3 of each period hide vehicle 0 *)
  let hidden = S.vehicles_at p 0 and visible = S.vehicles_at p 5 in
  Alcotest.(check bool) "hidden at t=0" false (List.hd hidden).S.visible;
  Alcotest.(check bool) "visible at t=5" true (List.hd visible).S.visible;
  Alcotest.(check int) "no marks while hidden" 0
    (List.length (S.ground_truth_marks p 0))

let test_mark_radius_scales () =
  let small = { S.cx = 0.0; cy = 0.0; scale = 0.6; visible = true } in
  let large = { small with S.scale = 1.2 } in
  Alcotest.(check bool) "radius grows with scale" true
    (S.mark_radius large > S.mark_radius small)

let test_mark_centers_empty_when_hidden () =
  let v = { S.cx = 10.0; cy = 10.0; scale = 1.0; visible = false } in
  Alcotest.(check int) "no centres" 0 (List.length (S.mark_centers v))

let test_road_frame_has_lines () =
  let img = S.road_frame ~width:256 ~height:256 0 in
  (* Bright line pixels exist below the horizon, none above. *)
  let above = ref 0 and below = ref 0 in
  I.iter
    (fun _ y v -> if v >= 240 then if y < 256 / 3 then incr above else incr below)
    img;
  Alcotest.(check int) "sky has no lines" 0 !above;
  Alcotest.(check bool) "road has lines" true (!below > 100)

let test_road_frame_deterministic () =
  let a = S.road_frame ~width:128 ~height:128 4 in
  let b = S.road_frame ~width:128 ~height:128 4 in
  Alcotest.(check bool) "deterministic" true (I.equal a b)

let test_vehicles_stay_in_frame () =
  for t = 0 to 100 do
    List.iter
      (fun v ->
        Alcotest.(check bool) "x in frame" true
          (v.S.cx > 0.0 && v.S.cx < float_of_int params.S.width);
        Alcotest.(check bool) "y in frame" true
          (v.S.cy > 0.0 && v.S.cy < float_of_int params.S.height))
      (S.vehicles_at params t)
  done

(* Golden pins: [Image.digest] of the default frames, recorded when the
   noise moved to [Prng.Trunc_normal]. Any change to a single pixel shows. *)
let frame_pins =
  [ 0x36e11a43; 0x097d7153; 0x3b089831; 0x0985840e; 0x332cd87d;
    0x2ba20647; 0x22eec1ec; 0x25510daf; 0x06615a1c; 0x18d9afe7 ]

(* The same frames without noise, recorded before the noise moved to
   [Prng.Trunc_normal] and unchanged by it: the noise is the only thing the
   sampler touches. *)
let noise_free_pins =
  [ 0x0825710f; 0x2ed5413f; 0x2450199c; 0x1a641290; 0x0903c106;
    0x1ba821dd; 0x3a2eed20; 0x3540bd2b; 0x1dbfc19a; 0x3eb5b9a2 ]

let road_pins = [ 0x10641b61; 0x1dfe33cd; 0x077223e1; 0x04ac1e1d ]

let test_frame_golden () =
  List.iteri
    (fun t pin ->
      Alcotest.(check int) (Printf.sprintf "frame %d" t) pin
        (I.digest (S.frame S.default_params t)))
    frame_pins

let test_noise_free_frame_golden () =
  List.iteri
    (fun t pin ->
      Alcotest.(check int) (Printf.sprintf "frame %d" t) pin
        (I.digest (S.frame { S.default_params with S.noise = 0.0 } t)))
    noise_free_pins

let test_road_frame_golden () =
  List.iteri
    (fun t pin ->
      Alcotest.(check int) (Printf.sprintf "road frame %d" t) pin
        (I.digest (S.road_frame ~width:256 ~height:256 t)))
    road_pins

let test_frame_rejects_negative_index () =
  Alcotest.check_raises "t < 0"
    (Invalid_argument "Scene.frame: negative frame index") (fun () ->
      ignore (S.frame params (-1)))

(* The per-pixel, bounds-checked renderer the row-wise one replaced, kept
   here as the oracle. *)
module Reference = struct
  let draw_disc img cx cy r v =
    let x0 = int_of_float cx - r and y0 = int_of_float cy - r in
    for y = y0 to y0 + (2 * r) do
      for x = x0 to x0 + (2 * r) do
        if I.in_bounds img x y then begin
          let dx = float_of_int x -. cx and dy = float_of_int y -. cy in
          if (dx *. dx) +. (dy *. dy) <= float_of_int (r * r) then I.set img x y v
        end
      done
    done

  let draw_rect img x0 y0 w h v =
    for y = y0 to y0 + h - 1 do
      for x = x0 to x0 + w - 1 do
        if I.in_bounds img x y then I.set img x y v
      done
    done

  let render_background (p : S.params) img t =
    let h = p.height in
    for y = 0 to h - 1 do
      let base = 60 + (40 * y / h) in
      for x = 0 to p.width - 1 do
        let texture = (x * 7) + (y * 13) + (t * 3) in
        I.set img x y (base + (texture mod 11))
      done
    done

  let render_vehicle img (v : S.vehicle) =
    if v.visible then begin
      let s = v.scale in
      let bw = int_of_float (60.0 *. s) and bh = int_of_float (44.0 *. s) in
      draw_rect img (int_of_float v.cx - (bw / 2)) (int_of_float v.cy - (bh / 2)) bw bh 35;
      draw_rect img
        (int_of_float v.cx - (bw / 2))
        (int_of_float v.cy - (bh / 2))
        bw (bh / 4) 25;
      List.iter
        (fun (mx, my) -> draw_disc img mx my (S.mark_radius v) 250)
        (S.mark_centers v)
    end

  let add_noise (p : S.params) img t =
    if p.noise > 0.0 then begin
      let rng = Support.Prng.create (p.seed + (t * 7919)) in
      let n = I.size img in
      for _ = 1 to n / 5 do
        let r = Support.Prng.bits64 rng in
        (* u size / 2^32 of a 32-bit half u *)
        let scaled u size = Int64.(to_int (div (mul u (of_int size)) 0x1_0000_0000L)) in
        let x = scaled (Int64.shift_right_logical r 32) (I.width img)
        and y = scaled (Int64.logand r 0xFFFF_FFFFL) (I.height img) in
        let d = Support.Prng.Trunc_normal.(draw rng (table p.noise)) in
        let v = I.get img x y in
        let v' = if v >= 220 then max 220 (v + d) else min 179 (max 0 (v + d)) in
        I.set img x y v'
      done
    end

  let frame (p : S.params) t =
    let img = I.create p.width p.height in
    render_background p img t;
    List.iter (render_vehicle img) (S.vehicles_at p t);
    add_noise p img t;
    img
end

let arbitrary_scene =
  QCheck.make
    QCheck.Gen.(
      (* now and then the full 512x512 frame the tracker sees *)
      let* width, height =
        frequency
          [ (59, pair (int_range 1 97) (int_range 1 97)); (1, return (512, 512)) ]
      in
      let* nvehicles = int_range 1 3 and* seed = int_bound 1_000_000 in
      let* noise = oneofl [ 0.0; 0.5; 3.0; 7.5; 60.0 ]
      and* occlusion_period = int_bound 12 in
      let* t = int_bound 5000 in
      return ({ S.width; height; nvehicles; seed; noise; occlusion_period }, t))
    ~print:(fun ((p : S.params), t) ->
      Printf.sprintf "%dx%d nvehicles=%d seed=%d noise=%g occlusion=%d t=%d"
        p.width p.height p.nvehicles p.seed p.noise p.occlusion_period t)

let prop_frame_matches_reference =
  QCheck.Test.make ~name:"row-wise frame equals the per-pixel reference" ~count:300
    arbitrary_scene (fun (p, t) -> I.equal (S.frame p t) (Reference.frame p t))

(* The generator's frames are small; these are the size the tracker sees,
   at every noise level the generator draws. *)
let test_full_frames_match_reference () =
  List.iteri
    (fun i noise ->
      let p = { S.default_params with S.noise; seed = 42 + i } in
      let t = 37 * i in
      Alcotest.(check bool)
        (Printf.sprintf "512x512, noise %g, frame %d" noise t)
        true
        (I.equal (S.frame p t) (Reference.frame p t)))
    [ 0.5; 3.0; 7.5; 60.0 ]

(* The noise never crosses the mark threshold, so everything downstream of
   the >= 200 mask sees the noise-free frame. *)
let prop_noise_keeps_mark_mask =
  QCheck.Test.make ~name:"the >= 200 mask ignores the noise" ~count:200 arbitrary_scene
    (fun (p, t) ->
      let mask = I.fold (fun acc v -> (v >= 200) :: acc) [] in
      mask (S.frame p t) = mask (S.frame { p with S.noise = 0.0 } t))

let prop_noise_preserves_mark_separability =
  QCheck.Test.make ~name:"thresholding survives noise" ~count:30
    QCheck.(pair (int_bound 1000) (int_bound 50))
    (fun (seed, t) ->
      let p = { params with S.seed; noise = 4.0 } in
      let img = S.frame p t in
      let found =
        Vision.Ccl.detect_regions ~threshold:200 img
        |> List.filter (fun r -> r.Vision.Ccl.area >= 6)
        |> List.length
      in
      found = 3 * p.S.nvehicles)

let () =
  Alcotest.run "scene"
    [
      ( "vehicles",
        [
          Alcotest.test_case "frame deterministic" `Quick test_frame_deterministic;
          Alcotest.test_case "frames differ" `Quick test_frames_differ;
          Alcotest.test_case "marks bright" `Quick test_marks_bright_background_dark;
          Alcotest.test_case "threshold isolates marks" `Quick test_threshold_isolates_marks;
          Alcotest.test_case "detection matches truth" `Quick test_detection_matches_ground_truth;
          Alcotest.test_case "occlusion" `Quick test_occlusion_hides_vehicle;
          Alcotest.test_case "mark radius scales" `Quick test_mark_radius_scales;
          Alcotest.test_case "hidden vehicle has no marks" `Quick test_mark_centers_empty_when_hidden;
          Alcotest.test_case "vehicles stay in frame" `Quick test_vehicles_stay_in_frame;
          Alcotest.test_case "frame digests pinned" `Quick test_frame_golden;
          Alcotest.test_case "noise-free frame digests pinned" `Quick
            test_noise_free_frame_golden;
          Alcotest.test_case "full frames equal the per-pixel reference" `Quick
            test_full_frames_match_reference;
          Alcotest.test_case "negative frame index rejected" `Quick
            test_frame_rejects_negative_index;
        ] );
      ( "road",
        [
          Alcotest.test_case "road has lines" `Quick test_road_frame_has_lines;
          Alcotest.test_case "road deterministic" `Quick test_road_frame_deterministic;
          Alcotest.test_case "road digests pinned" `Quick test_road_frame_golden;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_noise_preserves_mark_separability;
          QCheck_alcotest.to_alcotest prop_frame_matches_reference;
          QCheck_alcotest.to_alcotest prop_noise_keeps_mark_mask;
        ] );
    ]
