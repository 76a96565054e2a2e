let put img x y v = if Image.in_bounds img x y then Image.set img x y v

let hline img ~x0 ~x1 ~y v =
  for x = min x0 x1 to max x0 x1 do
    put img x y v
  done

let vline img ~x ~y0 ~y1 v =
  for y = min y0 y1 to max y0 y1 do
    put img x y v
  done

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

let window img (w : Window.t) v =
  rect img ~x:w.Window.x ~y:w.Window.y ~w:w.Window.w ~h:w.Window.h v
