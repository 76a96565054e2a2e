let put img x y v = if Image.in_bounds img x y then Image.set img x y v

let hline img ~x0 ~x1 ~y v =
  for x = min x0 x1 to max x0 x1 do
    put img x y v
  done

let vline img ~x ~y0 ~y1 v =
  for y = min y0 y1 to max y0 y1 do
    put img x y v
  done

let line img ~x0 ~y0 ~x1 ~y1 v =
  (* Bresenham over the dominant axis. *)
  let dx = abs (x1 - x0) and dy = abs (y1 - y0) in
  let sx = if x0 < x1 then 1 else -1 and sy = if y0 < y1 then 1 else -1 in
  let rec step x y err =
    put img x y v;
    if x <> x1 || y <> y1 then begin
      let e2 = 2 * err in
      let x', err' = if e2 > -dy then (x + sx, err - dy) else (x, err) in
      let y', err'' = if e2 < dx then (y + sy, err' + dx) else (y, err') in
      step x' y' err''
    end
  in
  step x0 y0 (dx - dy)

let rect img ~x ~y ~w ~h v =
  if w > 0 && h > 0 then begin
    hline img ~x0:x ~x1:(x + w - 1) ~y v;
    hline img ~x0:x ~x1:(x + w - 1) ~y:(y + h - 1) v;
    vline img ~x ~y0:y ~y1:(y + h - 1) v;
    vline img ~x:(x + w - 1) ~y0:y ~y1:(y + h - 1) v
  end

let cross img ~x ~y ~size v =
  hline img ~x0:(x - size) ~x1:(x + size) ~y v;
  vline img ~x ~y0:(y - size) ~y1:(y + size) v

let disc img ~x ~y ~r v =
  for yy = y - r to y + r do
    for xx = x - r to x + r do
      if ((xx - x) * (xx - x)) + ((yy - y) * (yy - y)) <= r * r then put img xx yy v
    done
  done

let window img (w : Window.t) v =
  rect img ~x:w.Window.x ~y:w.Window.y ~w:w.Window.w ~h:w.Window.h v
