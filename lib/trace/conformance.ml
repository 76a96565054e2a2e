module Schedule = Syndex.Schedule
module Graph = Procnet.Graph

type op_row = {
  op_node : int;
  op_label : string;
  op_proc : int;
  predicted_busy : float;
  measured_busy : float;
  comm_overhead : float;
  op_slack : float;
}

type link_row = {
  link_src : int;
  link_dst : int;
  predicted_occupancy : float;
  measured_occupancy : float;
  link_slack : float;
}

type path_elem = {
  elem_lane : Event.lane;
  elem_kind : string;
  elem_label : string;
  elem_start : float;
  elem_finish : float;
  contribution : float;
  share : float;
}

type frame_row = {
  frame : int;
  injected : float;
  completed : float;
  latency : float;
}

type report = {
  predicted_makespan : float;
  measured_makespan : float;
  makespan_error : float;
  divergence : float;
  predicted_period : float;
  measured_period : float option;
  frames_in_flight : int;
  ops : op_row list;
  links : link_row list;
  path : path_elem list;
  path_length : float;
  frames : frame_row list;
}

(* ------------------------------------------------------------------ *)
(* Activity extraction                                                 *)

(* An activity is a span that occupies a resource: a compute/send/recv span
   occupies its processor, a link span occupies its directed link. Instants
   (delivers, blocks, faults) mark points but occupy nothing, so they never
   sit on the critical path themselves — their effect shows up as the gap
   they open between activities. *)
type activity = {
  idx : int;  (* emission index: deterministic tie-break and cycle guard *)
  lane : Event.lane;
  cat : string;
  act_name : string;
  start : float;
  finish : float;
  msg : int option;
}

let is_processor_track track =
  track >= Event.processor_track 0 && track <> Event.pool_track

let msg_of_args args =
  match List.assoc_opt "msg" args with
  | Some (Event.Count m) -> Some m
  | _ -> None

let activities timeline =
  let acts = ref [] in
  List.iteri
    (fun idx (e : Event.t) ->
      match e.Event.kind with
      | Event.Span dur ->
          let lane = e.Event.lane in
          let keep =
            if is_processor_track lane.Event.track then
              match e.Event.cat with
              | "compute" | "send" | "recv" -> true
              | _ -> false
            else lane.Event.track = Event.links_track && e.Event.cat = "link"
          in
          if keep then
            acts :=
              {
                idx;
                lane;
                cat = e.Event.cat;
                act_name = e.Event.name;
                start = e.Event.time;
                finish = e.Event.time +. dur;
                msg = msg_of_args e.Event.args;
              }
              :: !acts
      | _ -> ())
    (Event.events timeline);
  List.rev !acts

(* ------------------------------------------------------------------ *)
(* Measured critical path                                              *)

(* The resource an activity occupies. A whole processor is one resource —
   processes interleave on it, so the latest span anywhere on the track is
   the occupancy predecessor — while each directed link is its own. *)
let resource a =
  if is_processor_track a.lane.Event.track then (a.lane.Event.track, -1)
  else (a.lane.Event.track, a.lane.Event.index)

(* Lexicographic (finish, idx): the deterministic "earlier" order used both
   to pick the terminal activity and to guarantee backtracking progress on
   zero-duration spans. *)
let later a b = compare (a.finish, a.idx) (b.finish, b.idx) > 0

let critical_path acts =
  match acts with
  | [] -> ([], 0.0)
  | first :: rest ->
      let terminal = List.fold_left (fun m a -> if later a m then a else m) first rest in
      let tmax = terminal.finish in
      let eps = Float.abs tmax *. 1e-9 in
      let by_resource = Hashtbl.create 16 and by_msg = Hashtbl.create 64 in
      let push tbl key a =
        Hashtbl.replace tbl key (a :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
      in
      List.iter
        (fun a ->
          push by_resource (resource a) a;
          match a.msg with Some m -> push by_msg m a | None -> ())
        acts;
      (* latest candidate ending no later than [a] starts, and strictly
         earlier than [a] in (finish, idx) order so chains of zero-duration
         spans at one instant terminate *)
      let best_before a candidates =
        List.fold_left
          (fun acc b ->
            if b.idx <> a.idx && b.finish <= a.start +. eps && later a b then
              match acc with
              | Some c when later c b -> acc
              | _ -> Some b
            else acc)
          None candidates
      in
      let lookup tbl key = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
      let visited = Hashtbl.create 64 in
      let rec back a path =
        Hashtbl.replace visited a.idx ();
        let occupancy =
          (* only back-to-back occupancy: a gap before [a] on its own
             resource is idle time, never critical *)
          match best_before a (lookup by_resource (resource a)) with
          | Some o when a.start -. o.finish <= eps -> Some o
          | _ -> None
        in
        let causal =
          (* message chain: a link hop follows the send (or an earlier hop)
             of its message; a recv follows the last hop (or the send, for
             a local delivery). Sends have no causal predecessor — the
             compute that produced the data is their occupancy pred. A gap
             here is transport latency (delivery overhead, injected delay),
             which is exactly time on the critical path, so causal
             predecessors are accepted across gaps. *)
          match (a.cat, a.msg) with
          | ("link" | "recv"), Some m -> best_before a (lookup by_msg m)
          | _ -> None
        in
        let pred =
          match (occupancy, causal) with
          | Some o, Some c -> Some (if later o c then o else c)
          | (Some _ as p), None | None, (Some _ as p) -> p
          | None, None -> None
        in
        match pred with
        | Some p when not (Hashtbl.mem visited p.idx) -> back p (a :: path)
        | _ -> a :: path
        (* no predecessor left: [a] waited on something outside the machine
           (the environment injecting its frame) — the chain ends here *)
      in
      let chain = back terminal [] in
      (* clamp each element's contribution to the time it alone adds past
         its predecessor, so the contributions sum to the chain's span *)
      let _, elems =
        List.fold_left
          (fun (covered, out) a ->
            let contribution = Float.max 0.0 (a.finish -. Float.max a.start covered) in
            (Float.max covered a.finish, (a, contribution) :: out))
          ((List.hd chain).start, [])
          chain
      in
      let elems = List.rev elems in
      let path_length = List.fold_left (fun s (_, c) -> s +. c) 0.0 elems in
      let share c = if path_length > 0.0 then c /. path_length else 0.0 in
      let label a =
        if a.cat = "link" then Printf.sprintf "%s %s" a.act_name a.lane.Event.label
        else
          Printf.sprintf "%s %s @%s" a.act_name a.lane.Event.label
            a.lane.Event.track_label
      in
      ( List.map
          (fun (a, contribution) ->
            {
              elem_lane = a.lane;
              elem_kind = a.cat;
              elem_label = label a;
              elem_start = a.start;
              elem_finish = a.finish;
              contribution;
              share = share contribution;
            })
          elems,
        path_length )

(* ------------------------------------------------------------------ *)
(* Predicted-vs-measured joins                                         *)

let op_rows ~(schedule : Schedule.t) ~nframes acts =
  let predicted = Hashtbl.create 16 in
  List.iter
    (fun (s : Schedule.op_slot) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt predicted s.node) in
      Hashtbl.replace predicted s.node (prev +. (s.finish -. s.start)))
    schedule.ops;
  let busy = Hashtbl.create 16 and overhead = Hashtbl.create 16 in
  List.iter
    (fun a ->
      if is_processor_track a.lane.Event.track then begin
        let tbl = if a.cat = "compute" then busy else overhead in
        let pid = a.lane.Event.index in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl pid) in
        Hashtbl.replace tbl pid (prev +. (a.finish -. a.start))
      end)
    acts;
  let per_frame tbl id =
    Option.value ~default:0.0 (Hashtbl.find_opt tbl id) /. float_of_int nframes
  in
  Array.to_list (Graph.nodes schedule.graph)
  |> List.map (fun (n : Graph.node) ->
         let predicted_busy =
           Option.value ~default:0.0 (Hashtbl.find_opt predicted n.Graph.id)
         in
         let measured_busy = per_frame busy n.Graph.id in
         {
           op_node = n.Graph.id;
           op_label = n.Graph.label;
           op_proc = schedule.placement.(n.Graph.id);
           predicted_busy;
           measured_busy;
           comm_overhead = per_frame overhead n.Graph.id;
           op_slack = measured_busy -. predicted_busy;
         })

let link_rows ~(schedule : Schedule.t) ~nframes acts =
  let nprocs = Archi.nprocs schedule.arch in
  let predicted = Hashtbl.create 16 in
  let book key dur =
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt predicted key) in
    Hashtbl.replace predicted key (prev +. dur)
  in
  (* the prediction engine reserves each hop for its own startup + byte
     time; charge exactly those slots *)
  List.iter
    (fun (c : Schedule.comm_slot) ->
      List.iter
        (fun (h : Schedule.hop_slot) ->
          book (h.Schedule.hop_src, h.Schedule.hop_dst)
            (h.Schedule.hop_finish -. h.Schedule.hop_start))
        c.Schedule.hops)
    schedule.comms;
  let measured = Hashtbl.create 16 in
  List.iter
    (fun a ->
      if a.cat = "link" then begin
        let key = (a.lane.Event.index / nprocs, a.lane.Event.index mod nprocs) in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt measured key) in
        Hashtbl.replace measured key (prev +. (a.finish -. a.start))
      end)
    acts;
  let keys = Hashtbl.create 16 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) predicted;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) measured;
  Hashtbl.fold (fun k () acc -> k :: acc) keys []
  |> List.sort compare
  |> List.map (fun (src, dst) ->
         let predicted_occupancy =
           Option.value ~default:0.0 (Hashtbl.find_opt predicted (src, dst))
         in
         let measured_occupancy =
           Option.value ~default:0.0 (Hashtbl.find_opt measured (src, dst))
           /. float_of_int nframes
         in
         {
           link_src = src;
           link_dst = dst;
           predicted_occupancy;
           measured_occupancy;
           link_slack = measured_occupancy -. predicted_occupancy;
         })

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)

let analyse ~schedule ?(output_times = []) ?input_period timeline =
  let acts = activities timeline in
  if acts = [] then
    Error
      "conformance needs a recorded timeline with machine activity (run with \
       tracing enabled)"
  else begin
    let period = Option.value ~default:0.0 input_period in
    let frames =
      List.mapi
        (fun frame completed ->
          let injected = float_of_int frame *. period in
          { frame; injected; completed; latency = completed -. injected })
        output_times
    in
    let nframes = Int.max 1 (List.length frames) in
    let path, path_length = critical_path acts in
    let measured_makespan =
      match frames with
      | [] -> List.fold_left (fun m a -> Float.max m a.finish) 0.0 acts
      | _ ->
          List.fold_left (fun s f -> s +. f.latency) 0.0 frames
          /. float_of_int (List.length frames)
    in
    let predicted_makespan = schedule.Schedule.makespan in
    let makespan_error =
      if predicted_makespan > 0.0 then
        (measured_makespan -. predicted_makespan) /. predicted_makespan
      else 0.0
    in
    let ops = op_rows ~schedule ~nframes acts in
    let links = link_rows ~schedule ~nframes acts in
    let divergence =
      let slack =
        List.fold_left (fun s r -> s +. Float.abs r.op_slack) 0.0 ops
        +. List.fold_left (fun s r -> s +. Float.abs r.link_slack) 0.0 links
      in
      Float.abs makespan_error
      +. (if predicted_makespan > 0.0 then slack /. predicted_makespan else slack)
    in
    (* Steady-state throughput join: the schedule's resource/bottleneck
       bound against the measured inter-output spacing. *)
    let predicted_period = Schedule.period schedule in
    let measured_period =
      match frames with
      | first :: (_ :: _ as rest) ->
          let last = List.nth rest (List.length rest - 1) in
          Some
            ((last.completed -. first.completed)
            /. float_of_int (List.length rest))
      | _ -> None
    in
    let frames_in_flight =
      match schedule.Schedule.pipeline with
      | Some p -> p.Schedule.frames_in_flight
      | None -> 1
    in
    Ok
      {
        predicted_makespan;
        measured_makespan;
        makespan_error;
        divergence;
        predicted_period;
        measured_period;
        frames_in_flight;
        ops;
        links;
        path;
        path_length;
        frames;
      }
  end

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let ms t = t *. 1e3

let to_string r =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "conformance: predicted makespan %.4f ms, measured %.4f ms (%+.1f%%)\n"
    (ms r.predicted_makespan) (ms r.measured_makespan)
    (r.makespan_error *. 100.0);
  pf "divergence score %.4f\n" r.divergence;
  (match r.measured_period with
  | Some m ->
      pf "steady state: predicted period %.4f ms, measured %.4f ms (%d frame%s \
          in flight predicted)\n"
        (ms r.predicted_period) (ms m) r.frames_in_flight
        (if r.frames_in_flight = 1 then "" else "s")
  | None ->
      pf "steady state: predicted period %.4f ms (%d frame%s in flight \
          predicted)\n"
        (ms r.predicted_period) r.frames_in_flight
        (if r.frames_in_flight = 1 then "" else "s"));
  pf "per-op slack (ms per frame):\n";
  pf "  %-24s %4s %10s %10s %10s %10s\n" "op" "proc" "predicted" "measured"
    "overhead" "slack";
  List.iter
    (fun o ->
      pf "  %-24s P%-3d %10.4f %10.4f %10.4f %+10.4f\n"
        (Printf.sprintf "%d:%s" o.op_node o.op_label)
        o.op_proc (ms o.predicted_busy) (ms o.measured_busy)
        (ms o.comm_overhead) (ms o.op_slack))
    r.ops;
  if r.links <> [] then begin
    pf "per-link slack (ms per frame):\n";
    pf "  %-10s %10s %10s %10s\n" "link" "predicted" "measured" "slack";
    List.iter
      (fun l ->
        pf "  P%d->P%-5d %10.4f %10.4f %+10.4f\n" l.link_src l.link_dst
          (ms l.predicted_occupancy) (ms l.measured_occupancy) (ms l.link_slack))
      r.links
  end;
  let run_finish =
    match List.rev r.path with e :: _ -> e.elem_finish | [] -> 0.0
  in
  let covered =
    if run_finish > 0.0 then r.path_length /. run_finish *. 100.0 else 0.0
  in
  pf "measured critical path: %.4f ms over %d elements (%.1f%% of the run's \
      %.4f ms)\n"
    (ms r.path_length) (List.length r.path) covered (ms run_finish);
  List.iter
    (fun e ->
      pf "  %5.1f%%  %-36s [%.4f .. %.4f ms]\n" (e.share *. 100.0) e.elem_label
        (ms e.elem_start) (ms e.elem_finish))
    r.path;
  if r.frames <> [] then begin
    pf "frames:\n";
    List.iter
      (fun f ->
        pf "  frame %-3d injected %.4f ms  completed %.4f ms  latency %.4f ms\n"
          f.frame (ms f.injected) (ms f.completed) (ms f.latency))
      r.frames
  end;
  Buffer.contents b

let to_json r =
  let open Support.Json in
  Obj
    [
      ("predicted_makespan", Num r.predicted_makespan);
      ("measured_makespan", Num r.measured_makespan);
      ("makespan_error", Num r.makespan_error);
      ("divergence", Num r.divergence);
      ("predicted_period", Num r.predicted_period);
      ( "measured_period",
        match r.measured_period with Some m -> Num m | None -> Null );
      ("frames_in_flight", int r.frames_in_flight);
      ("path_length", Num r.path_length);
      ( "ops",
        Arr
          (List.map
             (fun o ->
               Obj
                 [
                   ("node", int o.op_node);
                   ("label", Str o.op_label);
                   ("proc", int o.op_proc);
                   ("predicted", Num o.predicted_busy);
                   ("measured", Num o.measured_busy);
                   ("overhead", Num o.comm_overhead);
                   ("slack", Num o.op_slack);
                 ])
             r.ops) );
      ( "links",
        Arr
          (List.map
             (fun l ->
               Obj
                 [
                   ("src", int l.link_src);
                   ("dst", int l.link_dst);
                   ("predicted", Num l.predicted_occupancy);
                   ("measured", Num l.measured_occupancy);
                   ("slack", Num l.link_slack);
                 ])
             r.links) );
      ( "critical_path",
        Arr
          (List.map
             (fun e ->
               Obj
                 [
                   ("kind", Str e.elem_kind);
                   ("label", Str e.elem_label);
                   ("start", Num e.elem_start);
                   ("finish", Num e.elem_finish);
                   ("contribution", Num e.contribution);
                   ("share", Num e.share);
                 ])
             r.path) );
      ( "frames",
        Arr
          (List.map
             (fun f ->
               Obj
                 [
                   ("frame", int f.frame);
                   ("injected", Num f.injected);
                   ("completed", Num f.completed);
                   ("latency", Num f.latency);
                 ])
             r.frames) );
    ]

(* ------------------------------------------------------------------ *)
(* SVG overlays                                                        *)

let predicted_overlay (schedule : Schedule.t) =
  let nprocs = Archi.nprocs schedule.arch in
  let op_bars =
    List.map
      (fun (s : Schedule.op_slot) ->
        let label = (Graph.node schedule.graph s.Schedule.node).Graph.label in
        {
          Svg.bar_lane =
            Event.processor_lane ~proc:s.Schedule.proc ~pid:s.Schedule.node
              ~name:label;
          bar_label = label;
          bar_start = s.Schedule.start;
          bar_finish = s.Schedule.finish;
        })
      schedule.ops
  in
  let comm_bars =
    List.concat_map
      (fun (c : Schedule.comm_slot) ->
        let label =
          Printf.sprintf "comm %d->%d" c.edge.Graph.src c.edge.Graph.dst
        in
        (* the per-hop reservations: startup + byte time, placed around
           earlier traffic *)
        List.map
          (fun (h : Schedule.hop_slot) ->
            {
              Svg.bar_lane =
                Event.link_lane ~src:h.Schedule.hop_src ~dst:h.Schedule.hop_dst
                  ~nprocs;
              bar_label = label;
              bar_start = h.Schedule.hop_start;
              bar_finish = h.Schedule.hop_finish;
            })
          c.Schedule.hops)
      schedule.comms
  in
  op_bars @ comm_bars

let critical_overlay r =
  List.map
    (fun e ->
      {
        Svg.bar_lane = e.elem_lane;
        bar_label = e.elem_label;
        bar_start = e.elem_start;
        bar_finish = e.elem_finish;
      })
    r.path
