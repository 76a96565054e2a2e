type t = { width : int; height : int; data : Bytes.t }

let clamp v = if v < 0 then 0 else if v > 255 then 255 else v

let create ?(init = 0) width height =
  if width <= 0 || height <= 0 then
    invalid_arg "Image.create: non-positive dimensions";
  if init < 0 || init > 255 then invalid_arg "Image.create: init out of range";
  { width; height; data = Bytes.make (width * height) (Char.chr init) }

let unsafe_create width height =
  if width <= 0 || height <= 0 then
    invalid_arg "Image.unsafe_create: non-positive dimensions";
  { width; height; data = Bytes.create (width * height) }

let width img = img.width
let height img = img.height
let size img = img.width * img.height
let in_bounds img x y = x >= 0 && x < img.width && y >= 0 && y < img.height

let check img x y =
  if not (in_bounds img x y) then
    invalid_arg
      (Printf.sprintf "Image: (%d, %d) out of bounds for %dx%d" x y img.width
         img.height)

let unsafe_get img x y = Char.code (Bytes.unsafe_get img.data ((y * img.width) + x))

let unsafe_set img x y v =
  Bytes.unsafe_set img.data ((y * img.width) + x) (Char.unsafe_chr v)

let get img x y =
  check img x y;
  unsafe_get img x y

let set img x y v =
  check img x y;
  unsafe_set img x y (clamp v)

let copy img = { img with data = Bytes.copy img.data }

(* [sub] clips inline: a helper returning the rectangle as a tuple
   allocates it on every call (ocamlopt does not unbox it). [Int.max] /
   [Int.min]: the polymorphic ones are calls into the generic compare. The
   row blits write every byte of [dst], so it is not pre-filled. *)
let sub img ~x ~y ~w ~h =
  let x0 = Int.max 0 x and y0 = Int.max 0 y in
  let cw = Int.min img.width (x + w) - x0
  and ch = Int.min img.height (y + h) - y0 in
  if cw <= 0 || ch <= 0 then invalid_arg "Image.sub: empty rectangle";
  let dst = unsafe_create cw ch in
  for row = 0 to ch - 1 do
    Bytes.blit img.data (((y0 + row) * img.width) + x0) dst.data (row * cw) cw
  done;
  dst

let map f img =
  let dst = create img.width img.height in
  for i = 0 to Bytes.length img.data - 1 do
    Bytes.unsafe_set dst.data i
      (Char.unsafe_chr (clamp (f (Char.code (Bytes.unsafe_get img.data i)))))
  done;
  dst

let mapi f img =
  let dst = create img.width img.height in
  for y = 0 to img.height - 1 do
    for x = 0 to img.width - 1 do
      unsafe_set dst x y (clamp (f x y (unsafe_get img x y)))
    done
  done;
  dst

let iter f img =
  for y = 0 to img.height - 1 do
    for x = 0 to img.width - 1 do
      f x y (unsafe_get img x y)
    done
  done

let fold f z img =
  let acc = ref z in
  for i = 0 to Bytes.length img.data - 1 do
    acc := f !acc (Char.code (Bytes.unsafe_get img.data i))
  done;
  !acc

let row_bands img n =
  if n <= 0 then invalid_arg "Image.row_bands: n <= 0";
  let h = img.height in
  let base = h / n and extra = h mod n in
  let rec loop i y acc =
    if i >= n || y >= h then List.rev acc
    else
      let rows = base + if i < extra then 1 else 0 in
      if rows = 0 then loop (i + 1) y acc
      else loop (i + 1) (y + rows) ((y, rows) :: acc)
  in
  loop 0 0 []

let extract_band img (y0, nrows) = sub img ~x:0 ~y:y0 ~w:img.width ~h:nrows

let equal a b =
  a.width = b.width && a.height = b.height && Bytes.equal a.data b.data

let digest img =
  (* Cheap FNV-1a over the raster, for display and quick comparisons. *)
  let h = ref 0x811c9dc5 in
  Bytes.iter
    (fun c ->
      h := (!h lxor Char.code c) * 0x01000193 land 0x3fffffff)
    img.data;
  !h

let pp ppf img =
  Format.fprintf ppf "<image %dx%d #%08x>" img.width img.height (digest img)

let save_pgm img path =
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "P5\n%d %d\n255\n" img.width img.height;
      Out_channel.output_bytes oc img.data)
