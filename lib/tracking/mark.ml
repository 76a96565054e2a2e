module V = Skel.Value

type t = {
  x : float;
  y : float;
  area : int;
  min_x : int;
  min_y : int;
  max_x : int;
  max_y : int;
}

let of_region ~dx ~dy (r : Vision.Ccl.region) =
  {
    x = r.Vision.Ccl.cx +. float_of_int dx;
    y = r.Vision.Ccl.cy +. float_of_int dy;
    area = r.Vision.Ccl.area;
    min_x = r.Vision.Ccl.min_x + dx;
    min_y = r.Vision.Ccl.min_y + dy;
    max_x = r.Vision.Ccl.max_x + dx;
    max_y = r.Vision.Ccl.max_y + dy;
  }

let distance a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))

let width m = m.max_x - m.min_x + 1
let height m = m.max_y - m.min_y + 1

let to_value m =
  V.Record
    [
      ("x", V.Float m.x);
      ("y", V.Float m.y);
      ("area", V.Int m.area);
      ("min_x", V.Int m.min_x);
      ("min_y", V.Int m.min_y);
      ("max_x", V.Int m.max_x);
      ("max_y", V.Int m.max_y);
    ]

let of_value v =
  {
    x = V.to_float (V.field "x" v);
    y = V.to_float (V.field "y" v);
    area = V.to_int (V.field "area" v);
    min_x = V.to_int (V.field "min_x" v);
    min_y = V.to_int (V.field "min_y" v);
    max_x = V.to_int (V.field "max_x" v);
    max_y = V.to_int (V.field "max_y" v);
  }

let list_to_value marks = V.List (List.map to_value marks)
let list_of_value v = List.map of_value (V.to_list v)

let equal a b =
  a.x = b.x && a.y = b.y && a.area = b.area && a.min_x = b.min_x && a.min_y = b.min_y
  && a.max_x = b.max_x && a.max_y = b.max_y
