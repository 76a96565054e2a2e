type vehicle = { cx : float; cy : float; scale : float; visible : bool }

type params = {
  width : int;
  height : int;
  nvehicles : int;
  seed : int;
  noise : float;
  occlusion_period : int;
}

let default_params =
  {
    width = 512;
    height = 512;
    nvehicles = 2;
    seed = 42;
    noise = 3.0;
    occlusion_period = 0;
  }

(* Trajectories are smooth closed-form functions of time so that any frame can
   be rendered without simulating the previous ones. Each vehicle weaves
   laterally (lane changes) and breathes in scale (distance changes). *)
let vehicles_at p t =
  let ft = float_of_int t in
  List.init (max 1 (min 3 p.nvehicles)) (fun i ->
      let fi = float_of_int i in
      let phase = fi *. 2.1 in
      let base_x = float_of_int p.width *. (0.3 +. (0.2 *. fi)) in
      let cx = base_x +. (float_of_int p.width *. 0.08 *. sin ((ft /. 40.0) +. phase)) in
      let cy =
        (float_of_int p.height *. (0.45 +. (0.08 *. fi)))
        +. (float_of_int p.height *. 0.03 *. cos ((ft /. 55.0) +. phase))
      in
      let scale = 0.8 +. (0.25 *. sin ((ft /. 70.0) +. (1.3 *. phase))) in
      let visible =
        if i = 0 && p.occlusion_period > 0 then
          t mod p.occlusion_period >= 4 (* hidden for 4 frames per period *)
        else true
      in
      { cx; cy; scale; visible })

let mark_centers v =
  if not v.visible then []
  else
    let s = v.scale in
    (* Two marks on top corners, one at the back centre (paper Fig. 3). *)
    [
      (v.cx -. (22.0 *. s), v.cy -. (16.0 *. s));
      (v.cx +. (22.0 *. s), v.cy -. (16.0 *. s));
      (v.cx, v.cy +. (14.0 *. s));
    ]

let mark_radius v = max 2 (int_of_float (4.5 *. v.scale))

let draw_disc img cx cy r v =
  let x0 = int_of_float cx - r and y0 = int_of_float cy - r in
  for y = y0 to y0 + (2 * r) do
    for x = x0 to x0 + (2 * r) do
      if Image.in_bounds img x y then begin
        let dx = float_of_int x -. cx and dy = float_of_int y -. cy in
        if (dx *. dx) +. (dy *. dy) <= float_of_int (r * r) then Image.set img x y v
      end
    done
  done

let draw_rect img x0 y0 w h v =
  for y = y0 to y0 + h - 1 do
    for x = x0 to x0 + w - 1 do
      if Image.in_bounds img x y then Image.set img x y v
    done
  done

let render_background p img t =
  (* Vertical luminance gradient (sky to road) plus a faint texture
     [(7x + 13y + 3t) mod 11] that depends deterministically on position and
     frame. Row y is [base + ((r0 + 7x) mod 11)], r0 = (13y + 3t) mod 11:
     the window at x0 = 8 r0 mod 11 (8 = 7^-1 mod 11) of the template
     [base + (7i mod 11)], i < w + 11, so each row is one blit and the
     template is refilled only when [base] changes (at most 40 times).
     With [t >= 0] every value is in 60..109. *)
  let h = p.height and w = p.width in
  let template = Image.create (w + 11) 1 in
  let filled = ref (-1) in
  for y = 0 to h - 1 do
    let base = 60 + (40 * y / h) in
    if base <> !filled then begin
      for i = 0 to w + 10 do
        Image.unsafe_set template i 0 (base + (7 * i mod 11))
      done;
      filled := base
    end;
    let r0 = ((y * 13) + (t * 3)) mod 11 in
    Image.blit ~src:template ~dst:img ~x:(-(8 * r0 mod 11)) ~y
  done

let render_vehicle img v =
  if v.visible then begin
    let s = v.scale in
    let bw = int_of_float (60.0 *. s) and bh = int_of_float (44.0 *. s) in
    (* Dark body rectangle, slightly darker roof band. *)
    draw_rect img
      (int_of_float v.cx - (bw / 2))
      (int_of_float v.cy - (bh / 2))
      bw bh 35;
    draw_rect img
      (int_of_float v.cx - (bw / 2))
      (int_of_float v.cy - (bh / 2))
      bw (bh / 4) 25;
    List.iter (fun (mx, my) -> draw_disc img mx my (mark_radius v) 250) (mark_centers v)
  end

let[@inline] clamp (v : int) lo hi = if v < lo then lo else if v > hi then hi else v

let add_noise p img t =
  if p.noise > 0.0 then begin
    let rng = Support.Prng.create (p.seed + (t * 7919)) in
    let noise = Support.Prng.Trunc_normal.table p.noise in
    let w = Image.width img and h = Image.height img in
    (* Perturb a pseudo-random 20% of pixels; keeps marks distinguishable
       while still exercising threshold robustness. Two draws per pixel:
       the position, x from the high and y from the low 32 bits of one
       [bits64] by multiply-shift (in range, so pixels are accessed
       unchecked), then the noise. *)
    for _ = 1 to w * h / 5 do
      let r = Support.Prng.bits64 rng in
      let x = (Int64.to_int (Int64.shift_right_logical r 32) * w) lsr 32 in
      let y = ((Int64.to_int r land 0xFFFF_FFFF) * h) lsr 32 in
      let d = Support.Prng.Trunc_normal.draw rng noise in
      let v = Image.unsafe_get img x y in
      (* Never push background pixels into mark range nor marks below it. *)
      let v' = if v >= 220 then clamp (v + d) 220 255 else clamp (v + d) 0 179 in
      Image.unsafe_set img x y v'
    done
  end

let frame p t =
  if t < 0 then invalid_arg "Scene.frame: negative frame index";
  let img = Image.create p.width p.height in
  render_background p img t;
  List.iter (render_vehicle img) (vehicles_at p t);
  add_noise p img t;
  img

let road_frame ~width ~height t =
  let img = Image.create width height in
  (* Asphalt with mild texture. *)
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      Image.set img x y (50 + (((x * 3) + (y * 5)) mod 9))
    done
  done;
  (* Perspective road: lines converge towards a vanishing point that drifts
     with the curvature phase. *)
  let vanish_x =
    (float_of_int width /. 2.0)
    +. (float_of_int width *. 0.25 *. sin (0.0005 *. float_of_int (t * t)))
  in
  let horizon = height / 3 in
  let line_at frac y =
    (* x position of a road line at row y, interpolating bottom -> vanish. *)
    let fy = float_of_int (y - horizon) /. float_of_int (height - horizon) in
    let bottom_x = float_of_int width *. frac in
    vanish_x +. ((bottom_x -. vanish_x) *. fy)
  in
  for y = horizon to height - 1 do
    let thickness = 1 + ((y - horizon) * 4 / (height - horizon)) in
    let draw frac dashed =
      let x = int_of_float (line_at frac y) in
      let on = (not dashed) || (y + (t * 5)) mod 24 < 14 in
      if on then
        for dx = -thickness to thickness do
          if Image.in_bounds img (x + dx) y then Image.set img (x + dx) y 245
        done
    in
    draw 0.12 false;
    draw 0.88 false;
    draw 0.5 true
  done;
  img

let ground_truth_marks p t = List.concat_map mark_centers (vehicles_at p t)
