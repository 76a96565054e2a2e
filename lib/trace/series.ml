(* Windowed time-series telemetry over the simulated timeline. See the mli
   for the data model; the load-bearing invariant is that every number is
   a deterministic function of the simulated run. *)

module Histogram = Support.Histogram
module Json = Support.Json

type window = {
  index : int;
  w_start : float;
  w_finish : float;
  frames : int;
  messages : int;
  reissues : int;
  deadline_misses : int;
  faults : int;
  in_flight : int;
  backlog : int;
  busy : float array;
  link_busy : ((int * int) * float) list;
  latency : Histogram.t;
  last_output : float option;
}

type t = {
  width : float;
  horizon : float;
  nprocs : int;
  windows : window array;
}

type totals = {
  total_frames : int;
  total_messages : int;
  total_busy : float;
  total_reissues : int;
  total_deadline_misses : int;
  total_faults : int;
}

(* Mutable accumulator mirrored into [window] records once the fold ends. *)
type acc = {
  mutable a_frames : int;
  mutable a_messages : int;
  mutable a_reissues : int;
  mutable a_misses : int;
  mutable a_faults : int;
  mutable a_injected : int;
  mutable a_backlog : int;
  a_busy : float array;
  a_links : (int * int, float ref) Hashtbl.t;
  a_hist : Histogram.t;
  mutable a_last_output : float option;
}

let build ~width ~nprocs ?(horizon = 0.0) ?(output_times = [])
    ?(latencies = []) ?input_period ?(injections = []) ?(reissue_times = [])
    timeline =
  if not (width > 0.0) then Error "series: window width must be positive"
  else if nprocs < 0 then Error "series: negative processor count"
  else if List.length latencies <> List.length output_times then
    Error "series: output_times and latencies must pair up"
  else begin
    let events = Event.by_time timeline in
    let finish_of (e : Event.t) =
      match e.Event.kind with
      | Event.Span dur -> e.Event.time +. dur
      | _ -> e.Event.time
    in
    let data_end =
      List.fold_left
        (fun acc e -> Float.max acc (finish_of e))
        0.0 events
    in
    let data_end =
      List.fold_left Float.max data_end
        (List.concat [ output_times; injections; reissue_times ])
    in
    let horizon = Float.max horizon data_end in
    let nwindows = max 1 (int_of_float (Float.ceil (horizon /. width))) in
    let idx t =
      min (nwindows - 1) (max 0 (int_of_float (Float.floor (t /. width))))
    in
    let accs =
      Array.init nwindows (fun _ ->
          {
            a_frames = 0;
            a_messages = 0;
            a_reissues = 0;
            a_misses = 0;
            a_faults = 0;
            a_injected = 0;
            a_backlog = 0;
            a_busy = Array.make nprocs 0.0;
            a_links = Hashtbl.create 8;
            a_hist = Histogram.create ();
            a_last_output = None;
          })
    in
    (* Distribute a span over the windows it overlaps. Window edges are
       exact multiples of [width]; the first/last windows absorb anything
       the index clamp pushed into them. *)
    let clip t0 dur add =
      if dur > 0.0 then begin
        let w0 = idx t0 and w1 = idx (t0 +. dur) in
        for w = w0 to w1 do
          let ws = if w = w0 then neg_infinity else float_of_int w *. width in
          let we =
            if w = w1 then infinity else float_of_int (w + 1) *. width
          in
          let lo = Float.max t0 ws and hi = Float.min (t0 +. dur) we in
          if hi > lo then add w (hi -. lo)
        done
      end
    in
    (* Per-port backlog growth, window-local: reset at each window edge.
       Events arrive time-sorted, so a single sweep suffices. *)
    let depth : (int * int * string, int) Hashtbl.t = Hashtbl.create 32 in
    let depth_window = ref (-1) in
    let port_of name =
      match String.index_opt name ' ' with
      | Some i -> String.sub name (i + 1) (String.length name - i - 1)
      | None -> name
    in
    let bump_depth w key delta =
      if w <> !depth_window then begin
        Hashtbl.reset depth;
        depth_window := w
      end;
      let cur = Option.value ~default:0 (Hashtbl.find_opt depth key) in
      let next = max 0 (cur + delta) in
      Hashtbl.replace depth key next;
      let a = accs.(w) in
      if next > a.a_backlog then a.a_backlog <- next
    in
    List.iter
      (fun (e : Event.t) ->
        let lane = e.Event.lane in
        let w = idx e.Event.time in
        match e.Event.kind with
        | Event.Span dur ->
            if
              lane.Event.track >= 3
              && lane.Event.track <> Event.pool_track
              && lane.Event.track - 3 < nprocs
              && (e.Event.cat = "compute" || e.Event.cat = "send"
                || e.Event.cat = "recv")
            then begin
              let proc = lane.Event.track - 3 in
              clip e.Event.time dur (fun w d ->
                  accs.(w).a_busy.(proc) <- accs.(w).a_busy.(proc) +. d);
              if e.Event.cat = "send" then
                accs.(w).a_messages <- accs.(w).a_messages + 1;
              if e.Event.cat = "recv" then
                bump_depth w
                  (lane.Event.track, lane.Event.index, port_of e.Event.name)
                  (-1)
            end
            else if lane.Event.track = Event.links_track && nprocs > 0 then begin
              let src = lane.Event.index / nprocs
              and dst = lane.Event.index mod nprocs in
              clip e.Event.time dur (fun w d ->
                  let links = accs.(w).a_links in
                  match Hashtbl.find_opt links (src, dst) with
                  | Some r -> r := !r +. d
                  | None -> Hashtbl.add links (src, dst) (ref d))
            end
        | Event.Instant ->
            if e.Event.cat = "fault" then
              accs.(w).a_faults <- accs.(w).a_faults + 1
            else if e.Event.cat = "deliver" then
              bump_depth w
                (lane.Event.track, lane.Event.index, port_of e.Event.name)
                1
        | Event.Flow_start _ | Event.Flow_end _ -> ())
      events;
    let misses_of lat =
      match input_period with
      | Some p when lat > p +. 1e-12 -> 1
      | _ -> 0
    in
    (match (output_times, latencies) with
    | outs, [] ->
        List.iter
          (fun t ->
            let a = accs.(idx t) in
            a.a_frames <- a.a_frames + 1;
            a.a_last_output <-
              Some
                (match a.a_last_output with
                | None -> t
                | Some prev -> Float.max prev t))
          outs
    | outs, lats ->
        List.iter2
          (fun t lat ->
            let a = accs.(idx t) in
            a.a_frames <- a.a_frames + 1;
            a.a_misses <- a.a_misses + misses_of lat;
            Histogram.add a.a_hist lat;
            a.a_last_output <-
              Some
                (match a.a_last_output with
                | None -> t
                | Some prev -> Float.max prev t))
          outs lats);
    List.iter
      (fun t ->
        let a = accs.(idx t) in
        a.a_injected <- a.a_injected + 1)
      injections;
    List.iter
      (fun t ->
        let a = accs.(idx t) in
        a.a_reissues <- a.a_reissues + 1)
      reissue_times;
    (* [in_flight] is cumulative: injected-so-far minus completed-so-far at
       each window's end ([Array.mapi] visits windows in index order). *)
    let running = ref 0 in
    let windows =
      Array.mapi
        (fun i a ->
          running := !running + a.a_injected - a.a_frames;
          let links =
            Hashtbl.fold (fun k r acc -> (k, !r) :: acc) a.a_links []
            |> List.sort compare
          in
          {
            index = i;
            w_start = float_of_int i *. width;
            w_finish = float_of_int (i + 1) *. width;
            frames = a.a_frames;
            messages = a.a_messages;
            reissues = a.a_reissues;
            deadline_misses = a.a_misses;
            faults = a.a_faults;
            in_flight = !running;
            backlog = a.a_backlog;
            busy = a.a_busy;
            link_busy = links;
            latency = a.a_hist;
            last_output = a.a_last_output;
          })
        accs
    in
    Ok { width; horizon; nprocs; windows }
  end

let throughput t w = float_of_int w.frames /. t.width

let utilisation t w =
  if t.nprocs = 0 then 0.0
  else
    Array.fold_left ( +. ) 0.0 w.busy /. (t.width *. float_of_int t.nprocs)

let totals t =
  Array.fold_left
    (fun acc w ->
      {
        total_frames = acc.total_frames + w.frames;
        total_messages = acc.total_messages + w.messages;
        total_busy = acc.total_busy +. Array.fold_left ( +. ) 0.0 w.busy;
        total_reissues = acc.total_reissues + w.reissues;
        total_deadline_misses = acc.total_deadline_misses + w.deadline_misses;
        total_faults = acc.total_faults + w.faults;
      })
    {
      total_frames = 0;
      total_messages = 0;
      total_busy = 0.0;
      total_reissues = 0;
      total_deadline_misses = 0;
      total_faults = 0;
    }
    t.windows

(* Times, SLO thresholds and values export with nine fixed decimals. *)
let fixed9 x = Json.Fixed (9, x)

let opt f = function None -> Json.Null | Some x -> f x

module Slo = struct
  type metric =
    | P50
    | P95
    | P99
    | Mean_latency
    | Miss_rate
    | Period
    | Throughput
    | Utilisation

  type op = Lt | Le | Gt | Ge

  type spec = { raw : string; metric : metric; op : op; threshold : float }

  let metric_names =
    [
      "p50_latency";
      "p95_latency";
      "p99_latency";
      "mean_latency";
      "miss_rate";
      "period";
      "throughput";
      "utilisation";
    ]

  let metric_of_name = function
    | "p50_latency" | "p50" -> Some P50
    | "p95_latency" | "p95" -> Some P95
    | "p99_latency" | "p99" -> Some P99
    | "mean_latency" -> Some Mean_latency
    | "miss_rate" -> Some Miss_rate
    | "period" -> Some Period
    | "throughput" -> Some Throughput
    | "utilisation" | "utilization" -> Some Utilisation
    | _ -> None

  let metric_name = function
    | P50 -> "p50_latency"
    | P95 -> "p95_latency"
    | P99 -> "p99_latency"
    | Mean_latency -> "mean_latency"
    | Miss_rate -> "miss_rate"
    | Period -> "period"
    | Throughput -> "throughput"
    | Utilisation -> "utilisation"

  let op_name = function Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

  let time_metric = function
    | P50 | P95 | P99 | Mean_latency | Period -> true
    | Miss_rate | Throughput | Utilisation -> false

  let parse raw =
    let s =
      String.concat "" (String.split_on_char ' ' (String.trim raw))
    in
    let split_op () =
      let n = String.length s in
      let rec scan i =
        if i >= n then None
        else
          match s.[i] with
          | '<' | '>' ->
              let op, len =
                if i + 1 < n && s.[i + 1] = '=' then
                  ((if s.[i] = '<' then Le else Ge), 2)
                else ((if s.[i] = '<' then Lt else Gt), 1)
              in
              Some (String.sub s 0 i, op, String.sub s (i + len) (n - i - len))
          | _ -> scan (i + 1)
      in
      scan 0
    in
    match split_op () with
    | None ->
        Error
          (Printf.sprintf
             "bad SLO %S: expected METRIC OP VALUE with OP one of < <= > >="
             raw)
    | Some (name, op, value) -> (
        match metric_of_name (String.lowercase_ascii name) with
        | None ->
            Error
              (Printf.sprintf "bad SLO %S: unknown metric %S (expected %s)"
                 raw name
                 (String.concat ", " metric_names))
        | Some metric -> (
            let value = String.lowercase_ascii value in
            let num, scale =
              let strip suffix factor =
                if
                  String.length value > String.length suffix
                  && Filename.check_suffix value suffix
                then
                  Some
                    ( String.sub value 0
                        (String.length value - String.length suffix),
                      factor )
                else None
              in
              let time = time_metric metric in
              match
                List.find_map
                  (fun (suffix, factor, ok) ->
                    if ok then strip suffix factor else None)
                  [
                    ("us", 1e-6, time);
                    ("ms", 1e-3, time);
                    ("s", 1.0, time);
                    ("%", 0.01, not time);
                    ("fps", 1.0, metric = Throughput);
                    ("hz", 1.0, metric = Throughput);
                  ]
              with
              | Some (n, f) -> (n, f)
              | None -> (value, 1.0)
            in
            match float_of_string_opt num with
            | None ->
                Error
                  (Printf.sprintf "bad SLO %S: cannot parse threshold %S" raw
                     value)
            | Some v when not (Float.is_finite v) ->
                Error
                  (Printf.sprintf "bad SLO %S: threshold %S is not finite" raw
                     value)
            | Some v -> Ok { raw; metric; op; threshold = v *. scale }))

  type state = Healthy | Warning | Violated

  type monitor = {
    spec : spec;
    final : state;
    transitions : (float * state * state) list;
    failing_windows : int;
    total_burn : float;
    first_violation : float option;
    worst : (int * float) option;
    recovered_at : float option;
    time_to_recovery : float option;
  }

  type report = { window_width : float; monitors : monitor list }

  let state_name = function
    | Healthy -> "ok"
    | Warning -> "warning"
    | Violated -> "violated"

  (* The window's observed value for the metric, when observable. Latency
     and miss-rate need a completed frame; period falls back to the widening
     gap since the last completed frame (so a stall registers); throughput
     is observable from the first completed frame onward. *)
  let observe series spec ~seen_frames ~last_output w =
    match spec.metric with
    | P50 | P95 | P99 | Mean_latency ->
        if Histogram.count w.latency = 0 then None
        else
          Some
            (match spec.metric with
            | P50 -> Histogram.quantile w.latency 0.50
            | P95 -> Histogram.quantile w.latency 0.95
            | P99 -> Histogram.quantile w.latency 0.99
            | _ -> Histogram.mean w.latency)
    | Miss_rate ->
        if w.frames = 0 then None
        else
          Some (float_of_int w.deadline_misses /. float_of_int w.frames)
    | Period ->
        if w.frames > 0 then Some (series.width /. float_of_int w.frames)
        else
          Option.map (fun t -> w.w_finish -. t) last_output
    | Throughput ->
        if seen_frames + w.frames = 0 then None
        else Some (throughput series w)
    | Utilisation -> Some (utilisation series w)

  let failing spec v =
    not
      (match spec.op with
      | Lt -> v < spec.threshold
      | Le -> v <= spec.threshold
      | Gt -> v > spec.threshold
      | Ge -> v >= spec.threshold)

  (* How badly a failing observation misses the target; used only to rank
     windows, so any deterministic monotone measure works. *)
  let severity spec v =
    match spec.op with
    | Lt | Le -> if spec.threshold > 0.0 then v /. spec.threshold else v
    | Gt | Ge -> if v > 0.0 then spec.threshold /. v else infinity

  let evaluate specs series =
    let monitors =
      List.map
        (fun spec ->
          let state = ref Healthy in
          let transitions = ref [] in
          let failing_windows = ref 0 in
          let first_violation = ref None in
          let worst = ref None in
          let recovered_at = ref None in
          let seen_frames = ref 0 in
          let last_output = ref None in
          Array.iter
            (fun w ->
              (match
                 observe series spec ~seen_frames:!seen_frames
                   ~last_output:!last_output w
               with
              | None -> ()
              | Some v ->
                  let fails = failing spec v in
                  if fails then begin
                    incr failing_windows;
                    let sev = severity spec v in
                    (match !worst with
                    | Some (_, _, best) when best >= sev -> ()
                    | _ -> worst := Some (w.index, v, sev))
                  end;
                  let next =
                    match (!state, fails) with
                    | Healthy, true -> Warning
                    | Warning, true | Violated, true -> Violated
                    | _, false -> Healthy
                  in
                  if next <> !state then begin
                    transitions := (w.w_finish, !state, next) :: !transitions;
                    (match (next, !first_violation) with
                    | Violated, None -> first_violation := Some w.w_finish
                    | _ -> ());
                    (match (!state, next, !first_violation, !recovered_at) with
                    | Violated, Healthy, Some _, None ->
                        recovered_at := Some w.w_finish
                    | _ -> ());
                    state := next
                  end);
              seen_frames := !seen_frames + w.frames;
              match w.last_output with
              | Some t -> last_output := Some t
              | None -> ())
            series.windows;
          let time_to_recovery =
            match (!first_violation, !recovered_at) with
            | Some v, Some r -> Some (r -. v)
            | _ -> None
          in
          {
            spec;
            final = !state;
            transitions = List.rev !transitions;
            failing_windows = !failing_windows;
            total_burn = float_of_int !failing_windows *. series.width;
            first_violation = !first_violation;
            worst = Option.map (fun (i, v, _) -> (i, v)) !worst;
            recovered_at = !recovered_at;
            time_to_recovery;
          })
        specs
    in
    { window_width = series.width; monitors }

  let ms t = t *. 1e3

  let to_string report =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "SLO report (%.3f ms windows):\n"
         (ms report.window_width));
    List.iter
      (fun m ->
        Buffer.add_string buf
          (Printf.sprintf "  %-24s %-9s burn %.3f ms over %d window%s\n"
             m.spec.raw
             (state_name m.final)
             (ms m.total_burn) m.failing_windows
             (if m.failing_windows = 1 then "" else "s"));
        (match m.first_violation with
        | Some t ->
            Buffer.add_string buf
              (Printf.sprintf "    first violation at %.3f ms\n" (ms t))
        | None -> ());
        (match m.worst with
        | Some (i, v) ->
            let shown, unit_ =
              if time_metric m.spec.metric then (ms v, " ms")
              else if m.spec.metric = Throughput then (v, " fps")
              else (v, "")
            in
            Buffer.add_string buf
              (Printf.sprintf "    worst window #%d: %s = %.4f%s\n" i
                 (metric_name m.spec.metric) shown unit_)
        | None -> ());
        match (m.recovered_at, m.time_to_recovery) with
        | Some r, Some ttr ->
            Buffer.add_string buf
              (Printf.sprintf
                 "    recovered at %.3f ms (time to recovery %.3f ms)\n"
                 (ms r) (ms ttr))
        | _ ->
            if m.first_violation <> None then
              Buffer.add_string buf "    not recovered by end of run\n")
      report.monitors;
    Buffer.contents buf

  let emit timeline report =
    List.iteri
      (fun i m ->
        let lane = Event.slo_lane ~index:i ~label:m.spec.raw in
        List.iter
          (fun (t, from_, to_) ->
            Event.instant timeline ~lane ~time:t ~cat:"slo"
              ~name:(state_name from_ ^ "->" ^ state_name to_)
              ~args:
                [
                  ("slo", Event.Str m.spec.raw);
                  ("state", Event.Str (state_name to_));
                ]
              ())
          m.transitions)
      report.monitors

  (* A band per violation episode: the spell from the first window that put
     the monitor in Warning/Violated through the last failing window before
     it returned to Healthy. Transitions are stamped at window ends, so the
     episode opens one width before the Healthy->Warning stamp. *)
  let bands report =
    List.concat_map
      (fun m ->
        let w = report.window_width in
        let spans = ref [] in
        let open_at = ref None in
        List.iter
          (fun (t, from_, to_) ->
            match (from_, to_, !open_at) with
            | Healthy, (Warning | Violated), None -> open_at := Some (t -. w)
            | _, Healthy, Some t0 ->
                spans := (t0, t -. w) :: !spans;
                open_at := None
            | _ -> ())
          m.transitions;
        (match (!open_at, m.transitions) with
        | Some t0, _ :: _ ->
            let last_t, _, _ = List.hd (List.rev m.transitions) in
            spans := (t0, Float.max last_t (t0 +. w)) :: !spans
        | _ -> ());
        List.rev_map
          (fun (t0, t1) ->
            {
              Svg.band_label = m.spec.raw;
              band_start = t0;
              band_finish = Float.max t1 (t0 +. w);
            })
          !spans)
      report.monitors

  let monitor_json m =
    Json.Obj
      [
        ("slo", Json.Str m.spec.raw);
        ("metric", Json.Str (metric_name m.spec.metric));
        ("op", Json.Str (op_name m.spec.op));
        ("threshold", fixed9 m.spec.threshold);
        ("state", Json.Str (state_name m.final));
        ("failing_windows", Json.int m.failing_windows);
        ("total_burn_s", fixed9 m.total_burn);
        ("first_violation_s", opt fixed9 m.first_violation);
        ("worst_window", opt Json.int (Option.map fst m.worst));
        ("worst_value", opt fixed9 (Option.map snd m.worst));
        ("recovered_s", opt fixed9 m.recovered_at);
        ("time_to_recovery_s", opt fixed9 m.time_to_recovery);
        ( "transitions",
          Json.Arr
            (List.map
               (fun (t, from_, to_) ->
                 Json.Obj
                   [
                     ("t_s", fixed9 t);
                     ("from", Json.Str (state_name from_));
                     ("to", Json.Str (state_name to_));
                   ])
               m.transitions) );
      ]
end

let window_json t w =
  let latency =
    let h = w.latency in
    if Histogram.count h = 0 then Json.Null
    else
      Json.Obj
        [
          ("n", Json.int (Histogram.count h));
          ("mean_s", fixed9 (Histogram.mean h));
          ("p50_s", fixed9 (Histogram.quantile h 0.50));
          ("p95_s", fixed9 (Histogram.quantile h 0.95));
          ("p99_s", fixed9 (Histogram.quantile h 0.99));
          ( "buckets",
            Json.Arr
              (List.map
                 (fun (le, n) -> Json.Obj [ ("le_s", fixed9 le); ("n", Json.int n) ])
                 (Histogram.buckets h)) );
        ]
  in
  Json.Obj
    [
      ("index", Json.int w.index);
      ("start_s", fixed9 w.w_start);
      ("end_s", fixed9 w.w_finish);
      ("frames", Json.int w.frames);
      ("throughput_fps", Json.Fixed (6, throughput t w));
      ("utilisation", Json.Fixed (6, utilisation t w));
      ("messages", Json.int w.messages);
      ("in_flight", Json.int w.in_flight);
      ("backlog", Json.int w.backlog);
      ("reissues", Json.int w.reissues);
      ("deadline_misses", Json.int w.deadline_misses);
      ("faults", Json.int w.faults);
      ("busy_s", Json.Arr (List.map fixed9 (Array.to_list w.busy)));
      ( "links",
        Json.Arr
          (List.map
             (fun ((src, dst), s) ->
               Json.Obj
                 [ ("src", Json.int src); ("dst", Json.int dst); ("busy_s", fixed9 s) ])
             w.link_busy) );
      ("latency", latency);
      ("last_output_s", opt fixed9 w.last_output);
    ]

let to_json ?slo t =
  let tot = totals t in
  Json.to_string
    (Json.Obj
       [
         ("width_s", fixed9 t.width);
         ("horizon_s", fixed9 t.horizon);
         ("nprocs", Json.int t.nprocs);
         ("nwindows", Json.int (Array.length t.windows));
         ( "totals",
           Json.Obj
             [
               ("frames", Json.int tot.total_frames);
               ("messages", Json.int tot.total_messages);
               ("busy_s", fixed9 tot.total_busy);
               ("reissues", Json.int tot.total_reissues);
               ("deadline_misses", Json.int tot.total_deadline_misses);
               ("faults", Json.int tot.total_faults);
             ] );
         ("windows", Json.Arr (List.map (window_json t) (Array.to_list t.windows)));
         ( "slos",
           Json.Arr
             (match slo with
             | None -> []
             | Some report -> List.map Slo.monitor_json report.Slo.monitors) );
       ])

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "index,start_ms,end_ms,frames,throughput_fps,utilisation,messages,in_flight,backlog,reissues,deadline_misses,faults,busy_ms,link_busy_ms,p50_ms,p95_ms,p99_ms,mean_ms\n";
  Array.iter
    (fun w ->
      let busy = Array.fold_left ( +. ) 0.0 w.busy in
      let link = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 w.link_busy in
      let q p =
        if Histogram.count w.latency = 0 then 0.0
        else Histogram.quantile w.latency p *. 1e3
      in
      Buffer.add_string buf
        (Printf.sprintf
           "%d,%.6f,%.6f,%d,%.6f,%.6f,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n"
           w.index (w.w_start *. 1e3) (w.w_finish *. 1e3) w.frames
           (throughput t w) (utilisation t w) w.messages w.in_flight
           w.backlog w.reissues w.deadline_misses w.faults (busy *. 1e3)
           (link *. 1e3) (q 0.50) (q 0.95) (q 0.99)
           (Histogram.mean w.latency *. 1e3)))
    t.windows;
  Buffer.contents buf

let to_prometheus ?slo t =
  let module M = Support.Metrics in
  let reg = M.create () in
  let tot = totals t in
  let counter name help v = M.set (M.counter reg ~help name) v in
  counter "skipper_frames_total" "Frames completed over the run."
    tot.total_frames;
  counter "skipper_messages_total" "Process messages sent over the run."
    tot.total_messages;
  counter "skipper_reissues_total" "Fault-recovery task reissues."
    tot.total_reissues;
  counter "skipper_deadline_misses_total" "Frames later than the input period."
    tot.total_deadline_misses;
  counter "skipper_faults_total" "Fault events injected into the run."
    tot.total_faults;
  let gauge name help labels v =
    M.set_gauge (M.gauge reg ~help ~labels name) v
  in
  for p = 0 to t.nprocs - 1 do
    gauge "skipper_processor_busy_seconds" "Per-processor busy time."
      [ ("proc", string_of_int p) ]
      (Array.fold_left (fun acc w -> acc +. w.busy.(p)) 0.0 t.windows)
  done;
  let links = Hashtbl.create 8 in
  Array.iter
    (fun w ->
      List.iter
        (fun (k, s) ->
          let cur = Option.value ~default:0.0 (Hashtbl.find_opt links k) in
          Hashtbl.replace links k (cur +. s))
        w.link_busy)
    t.windows;
  Hashtbl.iter
    (fun (src, dst) v ->
      gauge "skipper_link_busy_seconds" "Per-link occupied time."
        [ ("src", string_of_int src); ("dst", string_of_int dst) ]
        v)
    links;
  let hist =
    M.histogram reg ~help:"Frame latency distribution."
      "skipper_frame_latency_seconds"
  in
  Array.iter (fun w -> M.merge hist w.latency) t.windows;
  let nw = Array.length t.windows in
  if nw > 0 then
    gauge "skipper_in_flight_frames" "Frames in flight at end of run." []
      (float_of_int t.windows.(nw - 1).in_flight);
  gauge "skipper_backlog_max" "Peak per-port backlog growth in any window." []
    (float_of_int (Array.fold_left (fun acc w -> max acc w.backlog) 0 t.windows));
  (match slo with
  | None -> ()
  | Some report ->
      List.iter
        (fun (m : Slo.monitor) ->
          let labels = [ ("slo", m.Slo.spec.Slo.raw) ] in
          gauge "skipper_slo_state"
            "SLO state (0 ok, 1 warning, 2 violated)." labels
            (match m.Slo.final with
            | Slo.Healthy -> 0.0
            | Slo.Warning -> 1.0
            | Slo.Violated -> 2.0);
          gauge "skipper_slo_burn_seconds" "Time spent failing the SLO." labels
            m.Slo.total_burn)
        report.Slo.monitors);
  M.to_prometheus reg
