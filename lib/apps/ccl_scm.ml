module V = Skel.Value

(* Labellings are packed as 4-byte little-endian labels so message sizes
   reflect the real data volume crossing the links. *)
let encode_labelling (lab : Vision.Ccl.labelling) =
  let n = Array.length lab.Vision.Ccl.labels in
  let b = Bytes.create (4 * n) in
  Array.iteri (fun i l -> Bytes.set_int32_le b (4 * i) (Int32.of_int l)) lab.Vision.Ccl.labels;
  V.Record
    [
      ("width", V.Int lab.Vision.Ccl.width);
      ("height", V.Int lab.Vision.Ccl.height);
      ("ncomponents", V.Int lab.Vision.Ccl.ncomponents);
      ("labels", V.Str (Bytes.to_string b));
    ]

let decode_labelling v =
  let width = V.to_int (V.field "width" v) in
  let height = V.to_int (V.field "height" v) in
  let ncomponents = V.to_int (V.field "ncomponents" v) in
  let s = V.to_str (V.field "labels" v) in
  if String.length s <> 4 * width * height then
    raise (V.Type_error "decode_labelling: size mismatch");
  let labels =
    Array.init (width * height) (fun i ->
        Int32.to_int (String.get_int32_le s (4 * i)))
  in
  { Vision.Ccl.labels; width; height; ncomponents }

let region_to_value (r : Vision.Ccl.region) =
  V.Record
    [
      ("label", V.Int r.Vision.Ccl.label);
      ("area", V.Int r.Vision.Ccl.area);
      ("cx", V.Float r.Vision.Ccl.cx);
      ("cy", V.Float r.Vision.Ccl.cy);
      ("min_x", V.Int r.Vision.Ccl.min_x);
      ("min_y", V.Int r.Vision.Ccl.min_y);
      ("max_x", V.Int r.Vision.Ccl.max_x);
      ("max_y", V.Int r.Vision.Ccl.max_y);
    ]

let register table =
  let reg = Skel.Funtable.register table in
  reg "ccl_split" ~arity:2
    ~cost:(fun v ->
      match v with
      | V.Tuple [ _; V.Image img ] ->
          2000.0 +. (0.5 *. float_of_int (Vision.Image.size img))
      | _ -> 2000.0)
    (fun v ->
      match v with
      | V.Tuple [ V.Int nparts; V.Image img ] ->
          let bands = Vision.Image.row_bands img nparts in
          (* row_bands may return fewer bands for degenerate heights; scm
             requires exactly nparts, so re-split trivially by repeating the
             last band as empty is not possible -- reject instead. *)
          if List.length bands <> nparts then
            raise (V.Type_error "ccl_split: image too short for that many bands");
          V.List
            (List.map
               (fun (y0, _ as band) ->
                 V.Record
                   [
                     ("y0", V.Int y0);
                     ("img", V.Image (Vision.Image.extract_band img band));
                   ])
               bands)
      | _ -> raise (V.Type_error "ccl_split expects (nparts, image)"));
  reg "ccl_band" ~arity:1
    ~cost:(fun v ->
      match v with
      | V.Record _ -> (
          match V.field "img" v with
          | V.Image img ->
              3000.0 +. (30.0 *. float_of_int (Vision.Image.size img))
          | _ -> 3000.0)
      | _ -> 3000.0)
    (fun v ->
      let y0 = V.to_int (V.field "y0" v) in
      let img = V.to_image (V.field "img" v) in
      let lab = Vision.Ccl.label ~threshold:128 img in
      V.Record [ ("y0", V.Int y0); ("labelling", encode_labelling lab) ])
  ;
  reg "ccl_merge" ~arity:1
    ~cost:(fun v ->
      match v with
      | V.List parts ->
          let pixels =
            List.fold_left
              (fun acc p ->
                match V.field "labelling" p with
                | V.Record _ as l ->
                    acc + (V.to_int (V.field "width" l) * V.to_int (V.field "height" l))
                | _ -> acc)
              0 parts
          in
          5000.0 +. (10.0 *. float_of_int pixels)
      | _ -> 5000.0)
    (fun v ->
      let parts = V.to_list v in
      let bands =
        List.map
          (fun p ->
            (decode_labelling (V.field "labelling" p), V.to_int (V.field "y0" p)))
          parts
        |> List.sort (fun (_, a) (_, b) -> compare a b)
      in
      let width =
        match bands with
        | ((lab : Vision.Ccl.labelling), _) :: _ -> lab.Vision.Ccl.width
        | [] -> raise (V.Type_error "ccl_merge: no bands")
      in
      let full = Vision.Ccl.merge_bands ~width bands in
      let regions = Vision.Ccl.regions full in
      V.Record
        [
          ("ncomponents", V.Int full.Vision.Ccl.ncomponents);
          ("regions", V.List (List.map region_to_value regions));
        ])

let ir ~nparts =
  Skel.Ir.program "ccl-scm"
    (Skel.Ir.Scm
       { nparts; split = "ccl_split"; compute = "ccl_band"; merge = "ccl_merge" })

let source ~nparts =
  Printf.sprintf
    {|(* Connected-component labelling with scm (MVA'98 companion app). *)
external ccl_split : int -> img -> band list
external ccl_band : band -> labelling
external ccl_merge : labelling list -> regions

let nparts = %d
let main = fun im -> scm nparts ccl_split ccl_band ccl_merge im
|}
    nparts

let blobs_image ?(seed = 7) ?(nblobs = 40) width height =
  let rng = Support.Prng.create seed in
  let img = Vision.Image.create ~init:20 width height in
  for _ = 1 to nblobs do
    let cx = Support.Prng.int rng width and cy = Support.Prng.int rng height in
    let rx = 2 + Support.Prng.int rng (max 2 (width / 20)) in
    let ry = 2 + Support.Prng.int rng (max 2 (height / 20)) in
    for y = cy - ry to cy + ry do
      for x = cx - rx to cx + rx do
        if Vision.Image.in_bounds img x y then begin
          let fx = float_of_int (x - cx) /. float_of_int rx
          and fy = float_of_int (y - cy) /. float_of_int ry in
          if (fx *. fx) +. (fy *. fy) <= 1.0 then Vision.Image.set img x y 220
        end
      done
    done
  done;
  img

let result_summary v =
  let n = V.to_int (V.field "ncomponents" v) in
  let area =
    List.fold_left
      (fun acc r -> acc + V.to_int (V.field "area" r))
      0
      (V.to_list (V.field "regions" v))
  in
  (n, area)
