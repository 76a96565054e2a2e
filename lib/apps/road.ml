module V = Skel.Value

type lane = { offset : float; slope : float; confidence : float }

let lane_to_value l =
  V.Record
    [
      ("offset", V.Float l.offset);
      ("slope", V.Float l.slope);
      ("confidence", V.Float l.confidence);
    ]

let lane_of_value v =
  {
    offset = V.to_float (V.field "offset" v);
    slope = V.to_float (V.field "slope" v);
    confidence = V.to_float (V.field "confidence" v);
  }

let line_threshold = 230
let search_half_width = 48

(* Expected centre-line abscissa at absolute row [y], per the lane model
   parameterised from the bottom of the image. *)
let expected_x lane ~height y =
  lane.offset +. (lane.slope *. float_of_int (height - 1 - y))

let detect_rows strip ~y0 =
  (* The lane hint is applied by the caller restricting the strip; here we
     take the centroid of bright pixels per row. *)
  let w = Vision.Image.width strip and h = Vision.Image.height strip in
  let points = ref [] in
  for row = 0 to h - 1 do
    let sum = ref 0 and count = ref 0 in
    for x = 0 to w - 1 do
      if Vision.Image.get strip x row >= line_threshold then begin
        sum := !sum + x;
        incr count
      end
    done;
    if !count > 0 then
      points := (y0 + row, float_of_int !sum /. float_of_int !count) :: !points
  done;
  List.rev !points

let fit ~width ~height points =
  let n = List.length points in
  if n < 2 then { offset = float_of_int width /. 2.0; slope = 0.0; confidence = 0.0 }
  else begin
    (* least squares of x over t = height - 1 - y *)
    let fn = float_of_int n in
    let sums =
      List.fold_left
        (fun (st, sx, stt, stx) (y, x) ->
          let t = float_of_int (height - 1 - y) in
          (st +. t, sx +. x, stt +. (t *. t), stx +. (t *. x)))
        (0.0, 0.0, 0.0, 0.0) points
    in
    let st, sx, stt, stx = sums in
    let denom = (fn *. stt) -. (st *. st) in
    let slope = if abs_float denom < 1e-9 then 0.0 else ((fn *. stx) -. (st *. sx)) /. denom in
    let offset = (sx -. (slope *. st)) /. fn in
    let considered = float_of_int (height - (height / 3)) in
    { offset; slope; confidence = fn /. considered }
  end

let horizon height = height / 3

let register ~width ~height table =
  let reg = Skel.Funtable.register table in
  reg "road_input" ~arity:2
    ~cost:(fun _ -> 10_000.0 +. (1.0 *. float_of_int (width * height)))
    (fun v ->
      match v with
      | V.Tuple [ _; V.Int i ] -> V.Image (Vision.Scene.road_frame ~width ~height i)
      | _ -> raise (V.Type_error "road_input expects (dims, frame)"));
  reg "road_split" ~arity:2
    ~cost:(fun _ -> 2000.0 +. (0.5 *. float_of_int (width * (height - horizon height))))
    (fun v ->
      match v with
      | V.Tuple [ V.Int nparts; V.Tuple [ lane_v; V.Image img ] ] ->
          let h0 = horizon height in
          let lane = lane_of_value lane_v in
          let rows = height - h0 in
          let base = rows / nparts and extra = rows mod nparts in
          let items = ref [] in
          let y = ref h0 in
          for i = 0 to nparts - 1 do
            let nrows = base + if i < extra then 1 else 0 in
            let nrows = max 1 nrows in
            let y0 = min !y (height - 1) in
            let strip_rows = min nrows (height - y0) in
            (* Restrict each strip laterally around the predicted centre
               line when the previous fit was confident. *)
            let x0, x1 =
              if lane.confidence > 0.3 then begin
                let xm = int_of_float (expected_x lane ~height (y0 + (strip_rows / 2))) in
                (max 0 (xm - search_half_width), min width (xm + search_half_width))
              end
              else (0, width)
            in
            let strip =
              Vision.Image.sub img ~x:x0 ~y:y0 ~w:(max 1 (x1 - x0)) ~h:strip_rows
            in
            items :=
              V.Record
                [ ("y0", V.Int y0); ("x0", V.Int x0); ("img", V.Image strip) ]
              :: !items;
            y := !y + nrows
          done;
          V.List (List.rev !items)
      | _ -> raise (V.Type_error "road_split expects (nparts, (lane, image))"));
  reg "road_strip" ~arity:1
    ~cost:(fun v ->
      match v with
      | V.Record _ -> (
          match V.field "img" v with
          | V.Image img -> 2000.0 +. (8.0 *. float_of_int (Vision.Image.size img))
          | _ -> 2000.0)
      | _ -> 2000.0)
    (fun v ->
      let y0 = V.to_int (V.field "y0" v) in
      let x0 = V.to_int (V.field "x0" v) in
      let strip = V.to_image (V.field "img" v) in
      let points = detect_rows strip ~y0 in
      V.Record
        [
          ( "points",
            V.List
              (List.map
                 (fun (y, x) -> V.Tuple [ V.Int y; V.Float (x +. float_of_int x0) ])
                 points) );
        ])
  ;
  reg "road_fit" ~arity:1
    ~cost:(fun v ->
      match v with
      | V.List parts ->
          let n =
            List.fold_left
              (fun acc p -> acc + List.length (V.to_list (V.field "points" p)))
              0 parts
          in
          3000.0 +. (200.0 *. float_of_int n)
      | _ -> 3000.0)
    (fun v ->
      let points =
        List.concat_map
          (fun p ->
            List.map
              (fun pt ->
                match pt with
                | V.Tuple [ V.Int y; V.Float x ] -> (y, x)
                | _ -> raise (V.Type_error "road_fit: bad point"))
              (V.to_list (V.field "points" p)))
          (V.to_list v)
      in
      let lane = fit ~width ~height points in
      let lv = lane_to_value lane in
      V.Tuple [ lv; lv ]);
  reg "road_output" ~arity:1 ~cost:(fun _ -> 1000.0) (fun v -> v)

let ir ?(frames = 1) ~nstrips () =
  Skel.Ir.program ~frames "road-following"
    (Skel.Ir.Itermem
       {
         input = "road_input";
         loop =
           Skel.Ir.Scm
             { nparts = nstrips; split = "road_split"; compute = "road_strip";
               merge = "road_fit" };
         output = "road_output";
         init = lane_to_value { offset = 0.0; slope = 0.0; confidence = 0.0 };
       })

let input_value ~width ~height = V.Tuple [ V.Int width; V.Int height ]
