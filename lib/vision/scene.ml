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

(* one [Bytes.fill] per row of the rectangle clipped to the image *)
let draw_rect img x0 y0 w h v =
  let xa = Int.max 0 x0 and xb = Int.min (Image.width img) (x0 + w) in
  if xb > xa then
    for y = Int.max 0 y0 to Int.min (Image.height img) (y0 + h) - 1 do
      Bytes.fill img.Image.data ((y * Image.width img) + xa) (xb - xa) (Char.chr v)
    done

let render_background p img t =
  (* Vertical luminance gradient (sky to road) plus a faint texture
     [(7x + 13y + 3t) mod 11] that depends deterministically on position and
     frame. Row y is [base + ((r0 + 7x) mod 11)], r0 = (13y + 3t) mod 11:
     the window at x0 = 8 r0 mod 11 (8 = 7^-1 mod 11) of the template
     [base + (7i mod 11)], i < w + 11, so each row is one blit of w bytes,
     every pixel of the row. The template is rebuilt only when [base]
     changes (at most 40 times): its first period by hand, then doubled
     with blits, each from offset 0 and of a multiple of 11 bytes. With
     [t >= 0] every value is in 60..109. *)
  let h = p.height and w = p.width in
  let len = w + 11 in
  let template = Bytes.create len and data = img.Image.data in
  let filled = ref (-1) in
  for y = 0 to h - 1 do
    let base = 60 + (40 * y / h) in
    if base <> !filled then begin
      for i = 0 to 10 do
        Bytes.unsafe_set template i (Char.unsafe_chr (base + (7 * i mod 11)))
      done;
      let n = ref 11 in
      while !n < len do
        Bytes.blit template 0 template !n (Int.min !n (len - !n));
        n := 2 * !n
      done;
      filled := base
    end;
    let r0 = ((y * 13) + (t * 3)) mod 11 in
    Bytes.blit template (8 * r0 mod 11) data (y * w) w
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

(* [map.[(d + m) 256 + v]] is pixel value [v] moved by [d], clamped to its
   class: marks (>= 220) stay in 220..255, everything else in 0..179, so the
   noise never pushes background into mark range nor marks below it. Rows
   past [|d| = 255] would equal the edge rows, so [m] is at most 255 and the
   map at most 511 rows (128 KiB); at the default level 3 it is 37 rows. *)
let noise_map tbl =
  let m = Int.min 255 (Support.Prng.Trunc_normal.half tbl) in
  let clamp v lo hi = if v < lo then lo else if v > hi then hi else v in
  let map = Bytes.create (((2 * m) + 1) * 256) in
  for d = -m to m do
    for v = 0 to 255 do
      let v' = if v >= 220 then clamp (v + d) 220 255 else clamp (v + d) 0 179 in
      Bytes.set map (((d + m) * 256) + v) (Char.chr v')
    done
  done;
  map

(* one entry, as [Prng.Trunc_normal.table] keeps: every frame of a run asks
   for the same level; domains that race build equal maps *)
let noise_maps = Atomic.make None

let noise_map_at level =
  match Atomic.get noise_maps with
  | Some (l, map) when l = level -> map
  | _ ->
      let map = noise_map (Support.Prng.Trunc_normal.table level) in
      Atomic.set noise_maps (Some (level, map));
      map

let add_noise p img t =
  if p.noise > 0.0 then begin
    let rng = Support.Prng.create (p.seed + (t * 7919)) in
    let w = Image.width img and h = Image.height img in
    (* Perturb a pseudo-random 20% of pixels; keeps marks distinguishable
       while still exercising threshold robustness. [scatter] takes each
       pixel's x from the high and its y from the low 32 bits of one
       [bits64], by multiply-shift, and its noise from the next draw, and
       looks the new byte up in [noise_map]. *)
    Support.Prng.Trunc_normal.scatter rng (Support.Prng.Trunc_normal.table p.noise)
      (w * h / 5) ~width:w ~height:h ~map:(noise_map_at p.noise) img.Image.data
  end

(* The background writes every pixel, so the raster is not pre-filled. *)
let frame p t =
  if t < 0 then invalid_arg "Scene.frame: negative frame index";
  let img = Image.unsafe_create p.width p.height in
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
