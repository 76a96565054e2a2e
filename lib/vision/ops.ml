let threshold t img = Image.map (fun v -> if v >= t then 255 else 0) img
let invert img = Image.map (fun v -> 255 - v) img

let histogram img =
  let h = Array.make 256 0 in
  Image.iter (fun _ _ v -> h.(v) <- h.(v) + 1) img;
  h

let otsu_threshold img =
  let hist = histogram img in
  let total = Image.size img in
  let sum = ref 0.0 in
  Array.iteri (fun i n -> sum := !sum +. float_of_int (i * n)) hist;
  let sum_b = ref 0.0 and w_b = ref 0 and best = ref 0 and best_var = ref (-1.0) in
  for t = 0 to 255 do
    w_b := !w_b + hist.(t);
    if !w_b > 0 && !w_b < total then begin
      sum_b := !sum_b +. float_of_int (t * hist.(t));
      let w_f = total - !w_b in
      let m_b = !sum_b /. float_of_int !w_b in
      let m_f = (!sum -. !sum_b) /. float_of_int w_f in
      let between =
        float_of_int !w_b *. float_of_int w_f *. (m_b -. m_f) *. (m_b -. m_f)
      in
      if between > !best_var then begin
        best_var := between;
        best := t
      end
    end
    else if !w_b > 0 && !w_b = total && !best_var < 0.0 then best := t
  done;
  !best

let[@inline] clamp_coord (v : int) lo hi = if v < lo then lo else if v > hi then hi else v

(* The 3x3 kernels replicate the border: a neighbour's coordinates are
   clamped into the image. Clamping changes nothing inside the one-pixel
   border, and a clamped coordinate is always in bounds, so every pixel is
   read and written unchecked. *)

let convolve3 kernel ?(div = 1) img =
  if Array.length kernel <> 9 then invalid_arg "Ops.convolve3: kernel must be 3x3";
  if div = 0 then invalid_arg "Ops.convolve3: div = 0";
  let w = Image.width img and h = Image.height img in
  let dst = Image.create w h in
  let k0 = kernel.(0) and k1 = kernel.(1) and k2 = kernel.(2) in
  let k3 = kernel.(3) and k4 = kernel.(4) and k5 = kernel.(5) in
  let k6 = kernel.(6) and k7 = kernel.(7) and k8 = kernel.(8) in
  for y = 0 to h - 1 do
    let ym = clamp_coord (y - 1) 0 (h - 1) and yp = clamp_coord (y + 1) 0 (h - 1) in
    for x = 0 to w - 1 do
      let xm = clamp_coord (x - 1) 0 (w - 1) and xp = clamp_coord (x + 1) 0 (w - 1) in
      let acc =
        (k0 * Image.unsafe_get img xm ym)
        + (k1 * Image.unsafe_get img x ym)
        + (k2 * Image.unsafe_get img xp ym)
        + (k3 * Image.unsafe_get img xm y)
        + (k4 * Image.unsafe_get img x y)
        + (k5 * Image.unsafe_get img xp y)
        + (k6 * Image.unsafe_get img xm yp)
        + (k7 * Image.unsafe_get img x yp)
        + (k8 * Image.unsafe_get img xp yp)
      in
      Image.unsafe_set dst x y (clamp_coord (acc / div) 0 255)
    done
  done;
  dst

let sobel_magnitude img =
  let w = Image.width img and h = Image.height img in
  let dst = Image.create w h in
  for y = 0 to h - 1 do
    let ym = clamp_coord (y - 1) 0 (h - 1) and yp = clamp_coord (y + 1) 0 (h - 1) in
    for x = 0 to w - 1 do
      let xm = clamp_coord (x - 1) 0 (w - 1) and xp = clamp_coord (x + 1) 0 (w - 1) in
      let nw = Image.unsafe_get img xm ym
      and n = Image.unsafe_get img x ym
      and ne = Image.unsafe_get img xp ym
      and west = Image.unsafe_get img xm y
      and east = Image.unsafe_get img xp y
      and sw = Image.unsafe_get img xm yp
      and s = Image.unsafe_get img x yp
      and se = Image.unsafe_get img xp yp in
      let gx = -nw + ne - (2 * west) + (2 * east) - sw + se
      and gy = -nw - (2 * n) - ne + sw + (2 * s) + se in
      Image.unsafe_set dst x y (clamp_coord (abs gx + abs gy) 0 255)
    done
  done;
  dst

let box_blur img = convolve3 [| 1; 1; 1; 1; 1; 1; 1; 1; 1 |] ~div:9 img

(* [dilate] keeps the neighbourhood's maximum, otherwise its minimum. *)
let[@inline] pick ~dilate (best : int) v =
  if dilate then if v > best then v else best else if v < best then v else best

let morph3 ~dilate img =
  let w = Image.width img and h = Image.height img in
  let dst = Image.create w h in
  for y = 0 to h - 1 do
    let ym = clamp_coord (y - 1) 0 (h - 1) and yp = clamp_coord (y + 1) 0 (h - 1) in
    for x = 0 to w - 1 do
      let xm = clamp_coord (x - 1) 0 (w - 1) and xp = clamp_coord (x + 1) 0 (w - 1) in
      let best = Image.unsafe_get img x y in
      let best = pick ~dilate best (Image.unsafe_get img xm ym) in
      let best = pick ~dilate best (Image.unsafe_get img x ym) in
      let best = pick ~dilate best (Image.unsafe_get img xp ym) in
      let best = pick ~dilate best (Image.unsafe_get img xm y) in
      let best = pick ~dilate best (Image.unsafe_get img xp y) in
      let best = pick ~dilate best (Image.unsafe_get img xm yp) in
      let best = pick ~dilate best (Image.unsafe_get img x yp) in
      let best = pick ~dilate best (Image.unsafe_get img xp yp) in
      Image.unsafe_set dst x y best
    done
  done;
  dst

let erode3 img = morph3 ~dilate:false img
let dilate3 img = morph3 ~dilate:true img

let integral img =
  let w = Image.width img and h = Image.height img in
  let sat = Array.make ((w + 1) * (h + 1)) 0 in
  for y = 1 to h do
    let row_sum = ref 0 in
    for x = 1 to w do
      row_sum := !row_sum + Image.get img (x - 1) (y - 1);
      sat.((y * (w + 1)) + x) <- sat.(((y - 1) * (w + 1)) + x) + !row_sum
    done
  done;
  sat

let rect_sum img sat ~x ~y ~w ~h =
  let iw = Image.width img and ih = Image.height img in
  let x0 = clamp_coord x 0 iw and y0 = clamp_coord y 0 ih in
  let x1 = clamp_coord (x + w) 0 iw and y1 = clamp_coord (y + h) 0 ih in
  let at xx yy = sat.((yy * (iw + 1)) + xx) in
  at x1 y1 - at x0 y1 - at x1 y0 + at x0 y0

let mean img =
  let total = Image.fold (fun acc v -> acc + v) 0 img in
  float_of_int total /. float_of_int (Image.size img)

let count_above t img = Image.fold (fun acc v -> if v >= t then acc + 1 else acc) 0 img

let diff_count a b =
  if Image.width a <> Image.width b || Image.height a <> Image.height b then
    invalid_arg "Ops.diff_count: dimension mismatch";
  let n = ref 0 in
  Image.iter (fun x y v -> if Image.get b x y <> v then incr n) a;
  !n

let median3 img =
  let w = Image.width img and h = Image.height img in
  let dst = Image.create w h in
  let window = Array.make 9 0 in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let k = ref 0 in
      for ky = -1 to 1 do
        for kx = -1 to 1 do
          window.(!k) <-
            Image.get img (clamp_coord (x + kx) 0 (w - 1)) (clamp_coord (y + ky) 0 (h - 1));
          incr k
        done
      done;
      Array.sort compare window;
      Image.set dst x y window.(4)
    done
  done;
  dst

let gaussian5 img =
  (* separable binomial kernel [1; 4; 6; 4; 1] *)
  let w = Image.width img and h = Image.height img in
  let kernel = [| 1; 4; 6; 4; 1 |] in
  let tmp = Array.make (w * h) 0 in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let acc = ref 0 in
      for k = -2 to 2 do
        acc := !acc + (kernel.(k + 2) * Image.get img (clamp_coord (x + k) 0 (w - 1)) y)
      done;
      tmp.((y * w) + x) <- !acc
    done
  done;
  let dst = Image.create w h in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let acc = ref 0 in
      for k = -2 to 2 do
        acc := !acc + (kernel.(k + 2) * tmp.((clamp_coord (y + k) 0 (h - 1) * w) + x))
      done;
      Image.set dst x y (!acc / 256)
    done
  done;
  dst

let downsample2 img =
  let w = Image.width img and h = Image.height img in
  let dw = max 1 (w / 2) and dh = max 1 (h / 2) in
  let dst = Image.create dw dh in
  for y = 0 to dh - 1 do
    for x = 0 to dw - 1 do
      let sx = min (w - 1) (2 * x) and sy = min (h - 1) (2 * y) in
      let sx1 = min (w - 1) (sx + 1) and sy1 = min (h - 1) (sy + 1) in
      let sum =
        Image.get img sx sy + Image.get img sx1 sy + Image.get img sx sy1
        + Image.get img sx1 sy1
      in
      Image.set dst x y (sum / 4)
    done
  done;
  dst

let upsample2 img =
  let w = Image.width img and h = Image.height img in
  let dst = Image.create (2 * w) (2 * h) in
  Image.iter
    (fun x y v ->
      Image.set dst (2 * x) (2 * y) v;
      Image.set dst ((2 * x) + 1) (2 * y) v;
      Image.set dst (2 * x) ((2 * y) + 1) v;
      Image.set dst ((2 * x) + 1) ((2 * y) + 1) v)
    img;
  dst

let flip_horizontal img =
  let w = Image.width img in
  Image.mapi (fun x y _ -> Image.get img (w - 1 - x) y) img

let flip_vertical img =
  let h = Image.height img in
  Image.mapi (fun x y _ -> Image.get img x (h - 1 - y)) img

let rotate90 img =
  let w = Image.width img and h = Image.height img in
  let dst = Image.create h w in
  Image.iter (fun x y v -> Image.set dst (h - 1 - y) x v) img;
  dst

let equalize img =
  let hist = histogram img in
  let total = Image.size img in
  let cdf = Array.make 256 0 in
  let running = ref 0 in
  Array.iteri
    (fun i n ->
      running := !running + n;
      cdf.(i) <- !running)
    hist;
  (* smallest non-zero CDF value, for the standard normalisation *)
  let cdf_min =
    let rec first i = if i >= 256 then total else if hist.(i) > 0 then cdf.(i) else first (i + 1) in
    first 0
  in
  if cdf_min >= total then Image.copy img
  else
    Image.map
      (fun v -> (cdf.(v) - cdf_min) * 255 / (total - cdf_min))
      img
