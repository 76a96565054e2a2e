module V = Skel.Value

(* Pixel level above which a pixel belongs to a mark (scene marks render
   at >= 220; backgrounds stay below 180). *)
let mark_threshold = 200

(* Regions smaller than this are noise and discarded. *)
let min_mark_area = 6

let detect ~origin:(dx, dy) window =
  let regions = Vision.Ccl.detect_regions ~threshold:mark_threshold window in
  regions
  |> List.filter (fun (r : Vision.Ccl.region) -> r.Vision.Ccl.area >= min_mark_area)
  |> List.map (Mark.of_region ~dx ~dy)
  |> List.sort (fun (a : Mark.t) (b : Mark.t) -> compare b.Mark.area a.Mark.area)

let window_items img windows =
  List.map
    (fun (w : Vision.Window.t) ->
      let pixels = Vision.Window.extract img w in
      V.Record
        [ ("x", V.Int w.Vision.Window.x); ("y", V.Int w.Vision.Window.y);
          ("pixels", V.Image pixels) ])
    windows

let detect_item item =
  let dx = V.to_int (V.field "x" item) and dy = V.to_int (V.field "y" item) in
  let pixels = V.to_image (V.field "pixels" item) in
  Mark.list_to_value (detect ~origin:(dx, dy) pixels)

let item_area item = Vision.Image.size (V.to_image (V.field "pixels" item))
