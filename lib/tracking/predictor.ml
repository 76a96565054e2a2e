(* Maximum distance between a vehicle's marks (rigidity criterion). *)
let pattern_radius = 120.0
let window_margin = 10

(* Greedy clustering: repeatedly seed a cluster with the left-most
   unassigned mark and absorb its (at most two) nearest neighbours within
   the rigidity radius. Sorting makes the result deterministic. *)
let cluster marks =
  let sorted =
    List.sort
      (fun (a : Mark.t) (b : Mark.t) -> compare (a.Mark.x, a.Mark.y) (b.Mark.x, b.Mark.y))
      marks
  in
  let rec go remaining clusters =
    match remaining with
    | [] -> List.rev clusters
    | seed :: rest ->
        let near, far =
          List.partition (fun m -> Mark.distance seed m <= pattern_radius) rest
        in
        let near_sorted =
          List.sort (fun a b -> compare (Mark.distance seed a) (Mark.distance seed b)) near
        in
        let taken, left =
          match near_sorted with
          | a :: b :: rest -> ([ a; b ], rest)
          | l -> (l, [])
        in
        go (left @ far) ((seed :: taken) :: clusters)
  in
  go sorted []

let update (state : Track_state.t) marks =
  let groups = cluster marks in
  let full = List.filter (fun g -> List.length g = 3) groups in
  let frame = state.Track_state.frame + 1 in
  if full = [] then { Track_state.mode = Track_state.Reinit; tracks = []; frame }
  else begin
    let mk_track group =
      let candidate = { Track_state.marks = group; vx = 0.0; vy = 0.0 } in
      let cx, cy = Track_state.centroid candidate in
      (* Associate with the nearest previous track to estimate velocity. *)
      let nearest =
        List.fold_left
          (fun best prev ->
            let px, py = Track_state.centroid prev in
            let d = sqrt (((cx -. px) ** 2.0) +. ((cy -. py) ** 2.0)) in
            match best with
            | Some (_, bd) when bd <= d -> best
            | _ -> Some (prev, d))
          None state.Track_state.tracks
      in
      match nearest with
      | Some (prev, d) when d <= 2.0 *. pattern_radius ->
          let px, py = Track_state.centroid prev in
          { Track_state.marks = group; vx = cx -. px; vy = cy -. py }
      | _ -> candidate
    in
    {
      Track_state.mode = Track_state.Tracking;
      tracks = List.map mk_track full;
      frame;
    }
  end

let windows_for ~nproc ~width ~height (state : Track_state.t) =
  match state.Track_state.mode with
  | Track_state.Reinit -> Vision.Window.tile ~width ~height nproc
  | Track_state.Tracking ->
      let wins =
        List.concat_map
          (fun (tr : Track_state.track) ->
            List.map
              (fun (m : Mark.t) ->
                (* Predict the mark position one frame ahead and size the
                   window from the mark's englobing frame. *)
                let cx = m.Mark.x +. tr.Track_state.vx
                and cy = m.Mark.y +. tr.Track_state.vy in
                let half_w = (Mark.width m / 2) + window_margin
                and half_h = (Mark.height m / 2) + window_margin in
                Vision.Window.make
                  ~x:(int_of_float cx - half_w)
                  ~y:(int_of_float cy - half_h)
                  ~w:(2 * half_w) ~h:(2 * half_h))
              tr.Track_state.marks)
          state.Track_state.tracks
      in
      let clipped = List.filter_map (Vision.Window.clip ~width ~height) wins in
      if clipped = [] then Vision.Window.tile ~width ~height nproc else clipped
