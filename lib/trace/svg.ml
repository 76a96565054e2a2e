let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '&' -> Buffer.add_string b "&amp;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let colour = function
  | "compute" -> "#4e79a7"
  | "send" -> "#f28e2b"
  | "recv" -> "#59a14f"
  | "stage" -> "#af7aa1"
  | "link" -> "#9c755f"
  | "deliver" -> "#76b7b2"
  | "block" | "fault" -> "#e15759"
  | _ -> "#bab0ac"

let flow_colour = "#e15759"
let ghost_colour = "#8c8c8c"
let critical_colour = "#d4a017"
let f2 = Printf.sprintf "%.2f"

type overlay_bar = {
  bar_lane : Event.lane;
  bar_label : string;
  bar_start : float;
  bar_finish : float;
}

type band = {
  band_label : string;
  band_start : float;
  band_finish : float;
}

let band_colour = "#e15759"

let lanes ~extra events =
  let seen = Hashtbl.create 16 in
  let note (lane : Event.lane) =
    let key = (lane.Event.track, lane.Event.index) in
    if not (Hashtbl.mem seen key) then Hashtbl.add seen key lane
  in
  List.iter (fun (e : Event.t) -> note e.Event.lane) events;
  (* Overlay bars may address lanes no measured event landed on (a predicted
     comm on a link the run never used); give them a row anyway. *)
  List.iter (fun b -> note b.bar_lane) extra;
  List.sort compare (Hashtbl.fold (fun _ l acc -> l :: acc) seen [])

let gantt ?(predicted = []) ?(critical = []) ?(bands = []) timeline =
  let width = 960 in
  let events = Event.by_time timeline in
  if events = [] then
    Error
      "tracing was not enabled: the timeline holds no events (create the \
       machine with ~trace:true)"
  else begin
    let lanes = lanes ~extra:(predicted @ critical) events in
    let left = 150.0 and right = 20.0 and top = 34.0 and bottom = 14.0 in
    let lane_h = 26.0 and bar_h = 16.0 in
    let widthf = float_of_int width in
    let height = top +. (lane_h *. float_of_int (List.length lanes)) +. bottom in
    let tmax =
      List.fold_left
        (fun acc (e : Event.t) ->
          let stop =
            match e.Event.kind with
            | Event.Span dur -> e.Event.time +. dur
            | _ -> e.Event.time
          in
          Float.max acc stop)
        0.0 events
    in
    let tmax =
      List.fold_left
        (fun acc b -> Float.max acc b.bar_finish)
        tmax (predicted @ critical)
    in
    let tmax =
      List.fold_left (fun acc b -> Float.max acc b.band_finish) tmax bands
    in
    let tmax = if tmax > 0.0 then tmax else 1.0 in
    let x t = left +. (t /. tmax *. (widthf -. left -. right)) in
    let row lane =
      let rec index i = function
        | [] -> 0
        | l :: rest ->
            if
              l.Event.track = lane.Event.track
              && l.Event.index = lane.Event.index
            then i
            else index (i + 1) rest
      in
      index 0 lanes
    in
    let lane_top lane = top +. (lane_h *. float_of_int (row lane)) in
    let lane_mid lane = lane_top lane +. (lane_h /. 2.0) in
    let b = Buffer.create 4096 in
    Buffer.add_string b
      (Printf.sprintf
         "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" \
          height=\"%s\" font-family=\"monospace\" font-size=\"10\">\n"
         width (f2 height));
    Buffer.add_string b
      (Printf.sprintf
         "<defs><marker id=\"arrow\" viewBox=\"0 0 6 6\" refX=\"5\" \
          refY=\"3\" markerWidth=\"5\" markerHeight=\"5\" \
          orient=\"auto-start-reverse\"><path d=\"M 0 0 L 6 3 L 0 6 z\" \
          fill=\"%s\"/></marker></defs>\n"
         flow_colour);
    (* lane backgrounds and labels *)
    List.iteri
      (fun i lane ->
        let y = top +. (lane_h *. float_of_int i) in
        if i mod 2 = 0 then
          Buffer.add_string b
            (Printf.sprintf
               "<rect x=\"0\" y=\"%s\" width=\"%d\" height=\"%s\" \
                fill=\"#f3f3f3\"/>\n"
               (f2 y) width (f2 lane_h));
        Buffer.add_string b
          (Printf.sprintf
             "<text x=\"4\" y=\"%s\" dominant-baseline=\"middle\">%s</text>\n"
             (f2 (y +. (lane_h /. 2.0)))
             (escape
                (Printf.sprintf "%s %s" lane.Event.track_label lane.Event.label))))
      lanes;
    (* time axis: 6 ticks in milliseconds *)
    Buffer.add_string b
      (Printf.sprintf
         "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"#888\"/>\n"
         (f2 left) (f2 top)
         (f2 (widthf -. right))
         (f2 top));
    for i = 0 to 5 do
      let t = tmax *. float_of_int i /. 5.0 in
      Buffer.add_string b
        (Printf.sprintf
           "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"#ccc\"/>\n"
           (f2 (x t)) (f2 top) (f2 (x t))
           (f2 (height -. bottom)));
      Buffer.add_string b
        (Printf.sprintf
           "<text x=\"%s\" y=\"%s\" text-anchor=\"middle\">%s ms</text>\n"
           (f2 (x t))
           (f2 (top -. 6.0))
           (f2 (t *. 1e3)))
    done;
    (* SLO violation bands: full-height translucent ranges behind every
       lane, so "when were we out of budget" reads directly off the chart *)
    List.iter
      (fun band ->
        let x0 = x band.band_start in
        let w = Float.max 0.6 (x band.band_finish -. x0) in
        Buffer.add_string b
          (Printf.sprintf
             "<rect class=\"slo-band\" x=\"%s\" y=\"%s\" width=\"%s\" \
              height=\"%s\" fill=\"%s\" fill-opacity=\"0.10\"><title>SLO %s \
              violated @ %s ms (%s ms)</title></rect>\n"
             (f2 x0) (f2 top) (f2 w)
             (f2 (height -. top -. bottom))
             band_colour (escape band.band_label)
             (f2 (band.band_start *. 1e3))
             (f2 ((band.band_finish -. band.band_start) *. 1e3))))
      bands;
    (* predicted ghost bars (behind the measured spans): the static
       schedule's op/comm slots drawn as dashed outlines on the same lanes,
       so slippage is visible as measured bars sliding off their ghosts *)
    List.iter
      (fun bar ->
        let x0 = x bar.bar_start in
        let w = Float.max 0.6 (x bar.bar_finish -. x0) in
        Buffer.add_string b
          (Printf.sprintf
             "<rect class=\"ghost\" x=\"%s\" y=\"%s\" width=\"%s\" \
              height=\"%s\" fill=\"%s\" fill-opacity=\"0.18\" stroke=\"%s\" \
              stroke-dasharray=\"3,2\"><title>predicted %s @ %s ms (%s \
              ms)</title></rect>\n"
             (f2 x0)
             (f2 (lane_mid bar.bar_lane -. (bar_h /. 2.0) -. 2.0))
             (f2 w)
             (f2 (bar_h +. 4.0))
             ghost_colour ghost_colour (escape bar.bar_label)
             (f2 (bar.bar_start *. 1e3))
             (f2 ((bar.bar_finish -. bar.bar_start) *. 1e3))))
      predicted;
    (* spans and instants *)
    List.iter
      (fun (e : Event.t) ->
        let mid = lane_mid e.Event.lane in
        match e.Event.kind with
        | Event.Span dur ->
            let x0 = x e.Event.time in
            let w = Float.max 0.6 (x (e.Event.time +. dur) -. x0) in
            Buffer.add_string b
              (Printf.sprintf
                 "<rect x=\"%s\" y=\"%s\" width=\"%s\" height=\"%s\" \
                  fill=\"%s\"><title>%s @ %s ms (%s ms)</title></rect>\n"
                 (f2 x0)
                 (f2 (mid -. (bar_h /. 2.0)))
                 (f2 w) (f2 bar_h)
                 (colour e.Event.cat)
                 (escape e.Event.name)
                 (f2 (e.Event.time *. 1e3))
                 (f2 (dur *. 1e3)))
        | Event.Instant ->
            Buffer.add_string b
              (Printf.sprintf
                 "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"%s\" \
                  stroke-width=\"1.2\"><title>%s @ %s ms</title></line>\n"
                 (f2 (x e.Event.time))
                 (f2 (mid -. (bar_h /. 2.0)))
                 (f2 (x e.Event.time))
                 (f2 (mid +. (bar_h /. 2.0)))
                 (colour e.Event.cat) (escape e.Event.name)
                 (f2 (e.Event.time *. 1e3)))
        | Event.Flow_start _ | Event.Flow_end _ -> ())
      events;
    (* message arrows: pair flow starts with their ends *)
    let starts = Hashtbl.create 64 in
    List.iter
      (fun (e : Event.t) ->
        match e.Event.kind with
        | Event.Flow_start id ->
            if not (Hashtbl.mem starts id) then Hashtbl.add starts id e
        | _ -> ())
      events;
    List.iter
      (fun (e : Event.t) ->
        match e.Event.kind with
        | Event.Flow_end id -> (
            match Hashtbl.find_opt starts id with
            | Some s ->
                Buffer.add_string b
                  (Printf.sprintf
                     "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" \
                      stroke=\"%s\" stroke-width=\"1\" opacity=\"0.7\" \
                      marker-end=\"url(#arrow)\"/>\n"
                     (f2 (x s.Event.time))
                     (f2 (lane_mid s.Event.lane))
                     (f2 (x e.Event.time))
                     (f2 (lane_mid e.Event.lane))
                     flow_colour)
            | None -> ())
        | _ -> ())
      events;
    (* measured critical path: drawn last so the highlight outlines sit on
       top of the spans they bound *)
    List.iter
      (fun bar ->
        let x0 = x bar.bar_start in
        let w = Float.max 1.2 (x bar.bar_finish -. x0) in
        Buffer.add_string b
          (Printf.sprintf
             "<rect class=\"critical\" x=\"%s\" y=\"%s\" width=\"%s\" \
              height=\"%s\" fill=\"none\" stroke=\"%s\" \
              stroke-width=\"2\"><title>critical: %s @ %s ms (%s \
              ms)</title></rect>\n"
             (f2 x0)
             (f2 (lane_mid bar.bar_lane -. (bar_h /. 2.0) -. 3.0))
             (f2 w)
             (f2 (bar_h +. 6.0))
             critical_colour (escape bar.bar_label)
             (f2 (bar.bar_start *. 1e3))
             (f2 ((bar.bar_finish -. bar.bar_start) *. 1e3))))
      critical;
    if predicted <> [] || critical <> [] || bands <> [] then
      Buffer.add_string b
        (Printf.sprintf
           "<text x=\"4\" y=\"%s\">%s</text>\n"
           (f2 (top -. 20.0))
           (escape
              (String.concat "   "
                 ((if predicted <> [] then [ "dashed grey = predicted" ] else [])
                 @ (if critical <> [] then [ "gold outline = critical path" ]
                    else [])
                 @
                 if bands <> [] then [ "red band = SLO violation" ] else []))));
    Buffer.add_string b "</svg>\n";
    Ok (Buffer.contents b)
  end
