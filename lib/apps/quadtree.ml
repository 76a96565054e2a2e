module V = Skel.Value

type region = { x : int; y : int; w : int; h : int; mean : float }

let packet ~x ~y img =
  V.Record [ ("x", V.Int x); ("y", V.Int y); ("img", V.Image img) ]

let leaf ~x ~y ~w ~h mean =
  V.Record
    [
      ("x", V.Int x); ("y", V.Int y); ("w", V.Int w); ("h", V.Int h);
      ("mean", V.Float mean);
    ]

(* A region is a leaf when its intensity spread is at most [tolerance] or a
   side is at most [min_size] pixels. *)
let tolerance = 24
let min_size = 8

let register table =
  let reg = Skel.Funtable.register table in
  reg "quad_root" ~arity:1
    ~cost:(fun _ -> 1000.0)
    (fun v ->
      match v with
      | V.Image img -> V.List [ packet ~x:0 ~y:0 img ]
      | _ -> raise (V.Type_error "quad_root expects an image"));
  reg "quad_work" ~arity:1
    ~cost:(fun v ->
      match v with
      | V.Record _ -> (
          match V.field "img" v with
          | V.Image img -> 2000.0 +. (6.0 *. float_of_int (Vision.Image.size img))
          | _ -> 2000.0)
      | _ -> 2000.0)
    (fun v ->
      let x = V.to_int (V.field "x" v) and y = V.to_int (V.field "y" v) in
      let img = V.to_image (V.field "img" v) in
      let w = Vision.Image.width img and h = Vision.Image.height img in
      let lo, hi =
        Vision.Image.fold (fun (lo, hi) p -> (min lo p, max hi p)) (255, 0) img
      in
      if hi - lo <= tolerance || w <= min_size || h <= min_size then
        (* Homogeneous (or indivisible): a leaf, no new packets. *)
        V.Tuple [ V.List []; V.List [ leaf ~x ~y ~w ~h (Vision.Ops.mean img) ] ]
      else begin
        let w2 = w / 2 and h2 = h / 2 in
        let quads =
          [
            (0, 0, w2, h2);
            (w2, 0, w - w2, h2);
            (0, h2, w2, h - h2);
            (w2, h2, w - w2, h - h2);
          ]
        in
        let packets =
          List.map
            (fun (qx, qy, qw, qh) ->
              packet ~x:(x + qx) ~y:(y + qy)
                (Vision.Image.sub img ~x:qx ~y:qy ~w:qw ~h:qh))
            quads
        in
        V.Tuple [ V.List packets; V.List [] ]
      end);
  reg "empty_leaves" ~arity:0 ~cost:(fun _ -> 1.0) (fun _ -> V.List []);
  reg "quad_acc" ~arity:2
    ~cost:(fun _ -> 300.0)
    (fun v ->
      match v with
      | V.Tuple [ V.List acc; V.List leaves ] ->
          (* Canonical ordering keeps the fold commutative. *)
          V.List (List.sort V.compare (acc @ leaves))
      | _ -> raise (V.Type_error "quad_acc expects (list, list)"))

let ir ~nworkers =
  Skel.Ir.program "quadtree"
    (Skel.Ir.Pipe
       [
         Skel.Ir.Seq "quad_root";
         Skel.Ir.Tf
           { nworkers; work = "quad_work"; acc = "quad_acc"; init = V.List [] };
       ])

let leaves_of_value v =
  V.to_list v
  |> List.map (fun r ->
         {
           x = V.to_int (V.field "x" r);
           y = V.to_int (V.field "y" r);
           w = V.to_int (V.field "w" r);
           h = V.to_int (V.field "h" r);
           mean = V.to_float (V.field "mean" r);
         })
  |> List.sort (fun a b -> compare (a.y, a.x, a.w, a.h) (b.y, b.x, b.w, b.h))

let reconstruct ~width ~height leaves =
  let img = Vision.Image.create width height in
  List.iter
    (fun r ->
      for y = r.y to r.y + r.h - 1 do
        for x = r.x to r.x + r.w - 1 do
          if Vision.Image.in_bounds img x y then
            Vision.Image.set img x y (int_of_float r.mean)
        done
      done)
    leaves;
  img
