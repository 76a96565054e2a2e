module V = Skel.Value

type track = { marks : Mark.t list; vx : float; vy : float }
type mode = Tracking | Reinit
type t = { mode : mode; tracks : track list; frame : int }

let initial = { mode = Reinit; tracks = []; frame = 0 }

let centroid track =
  let n = float_of_int (max 1 (List.length track.marks)) in
  let sx = List.fold_left (fun acc (m : Mark.t) -> acc +. m.Mark.x) 0.0 track.marks in
  let sy = List.fold_left (fun acc (m : Mark.t) -> acc +. m.Mark.y) 0.0 track.marks in
  (sx /. n, sy /. n)

let track_to_value tr =
  V.Record
    [
      ("marks", Mark.list_to_value tr.marks);
      ("vx", V.Float tr.vx);
      ("vy", V.Float tr.vy);
    ]

let track_of_value v =
  {
    marks = Mark.list_of_value (V.field "marks" v);
    vx = V.to_float (V.field "vx" v);
    vy = V.to_float (V.field "vy" v);
  }

let to_value st =
  V.Record
    [
      ("mode", V.Str (match st.mode with Tracking -> "tracking" | Reinit -> "reinit"));
      ("tracks", V.List (List.map track_to_value st.tracks));
      ("frame", V.Int st.frame);
    ]

let of_value v =
  let mode =
    match V.to_str (V.field "mode" v) with
    | "tracking" -> Tracking
    | "reinit" -> Reinit
    | s -> raise (V.Type_error (Printf.sprintf "unknown tracker mode %S" s))
  in
  {
    mode;
    tracks = List.map track_of_value (V.to_list (V.field "tracks" v));
    frame = V.to_int (V.field "frame" v);
  }

let equal a b = V.equal (to_value a) (to_value b)
