type t = { x : int; y : int; w : int; h : int }

let make ~x ~y ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Window.make: non-positive dimensions";
  { x; y; w; h }

let area win = win.w * win.h

let contains win px py =
  px >= win.x && px < win.x + win.w && py >= win.y && py < win.y + win.h

let clip win ~width ~height =
  let x0 = max 0 win.x and y0 = max 0 win.y in
  let x1 = min width (win.x + win.w) and y1 = min height (win.y + win.h) in
  if x1 > x0 && y1 > y0 then Some { x = x0; y = y0; w = x1 - x0; h = y1 - y0 }
  else None

let tile ~width ~height n =
  if n <= 0 then invalid_arg "Window.tile: n <= 0";
  (* Distribute n cells over ~sqrt(n) rows; each row's cells span the full
     width and the rows span the full height, so the tiles cover the image
     exactly (and are disjoint whenever the image is large enough). *)
  let rows = max 1 (min (min n height) (int_of_float (sqrt (float_of_int n)))) in
  let cells_base = n / rows and cells_extra = n mod rows in
  let out = ref [] in
  let y = ref 0 in
  for i = 0 to rows - 1 do
    let cells = cells_base + if i < cells_extra then 1 else 0 in
    let remaining_rows = rows - i in
    let h =
      if i = rows - 1 then max 1 (height - !y)
      else max 1 ((height - !y) / remaining_rows)
    in
    let x = ref 0 in
    for j = 0 to cells - 1 do
      let remaining = cells - j in
      let w =
        if j = cells - 1 then max 1 (width - !x)
        else max 1 ((width - !x) / remaining)
      in
      out := { x = min !x (width - 1); y = min !y (height - 1); w; h } :: !out;
      x := !x + w
    done;
    y := !y + h
  done;
  List.rev !out

let extract img win =
  match clip win ~width:(Image.width img) ~height:(Image.height img) with
  | None -> invalid_arg "Window.extract: window outside image"
  | Some c -> Image.sub img ~x:c.x ~y:c.y ~w:c.w ~h:c.h

let equal a b = a.x = b.x && a.y = b.y && a.w = b.w && a.h = b.h
let pp ppf win = Format.fprintf ppf "[%d+%dx%d+%d]" win.x win.w win.y win.h
