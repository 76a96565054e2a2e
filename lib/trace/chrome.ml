module Json = Support.Json

(* Fixed three decimals keep the export deterministic (no shortest-round-
   trip formatting) and give nanosecond resolution on microsecond
   timestamps. *)
let us t = Json.Fixed (3, t *. 1e6)

let args_json args =
  Json.Obj
    (List.map
       (fun (k, v) ->
         ( k,
           match v with
           | Event.Str s -> Json.Str s
           | Event.Num f -> Json.Fixed (3, f)
           | Event.Count i -> Json.int i ))
       args)

(* Distinct lanes in deterministic (track, index) order, keeping the first
   labels seen. *)
let lanes timeline =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (e : Event.t) ->
      let key = (e.lane.Event.track, e.lane.Event.index) in
      if not (Hashtbl.mem seen key) then Hashtbl.add seen key e.lane)
    (Event.events timeline);
  List.sort compare (Hashtbl.fold (fun _ lane acc -> lane :: acc) seen [])

let metadata_events lanes =
  let meta ?tid pid name args =
    Json.Obj
      ((("ph", Json.Str "M") :: ("pid", Json.int pid)
       :: (match tid with Some tid -> [ ("tid", Json.int tid) ] | None -> []))
      @ [ ("name", Json.Str name); ("args", Json.Obj args) ])
  in
  let tracks =
    List.sort_uniq compare
      (List.map (fun l -> (l.Event.track, l.Event.track_label)) lanes)
  in
  List.concat_map
    (fun (pid, label) ->
      [
        meta pid "process_name" [ ("name", Json.Str label) ];
        meta pid "process_sort_index" [ ("sort_index", Json.int pid) ];
      ])
    tracks
  @ List.concat_map
      (fun l ->
        let tid = l.Event.index in
        [
          meta ~tid l.Event.track "thread_name" [ ("name", Json.Str l.Event.label) ];
          meta ~tid l.Event.track "thread_sort_index" [ ("sort_index", Json.int tid) ];
        ])
      lanes

let event_json (e : Event.t) =
  let common =
    [
      ("pid", Json.int e.lane.Event.track);
      ("tid", Json.int e.lane.Event.index);
      ("ts", us e.time);
      ("name", Json.Str e.name);
      ("cat", Json.Str e.cat);
    ]
  in
  let args = if e.args = [] then [] else [ ("args", args_json e.args) ] in
  let ph p = ("ph", Json.Str p) in
  Json.Obj
    (match e.kind with
    | Event.Span dur -> (ph "X" :: common) @ (("dur", us dur) :: args)
    | Event.Instant -> (ph "i" :: common) @ (("s", Json.Str "t") :: args)
    | Event.Flow_start flow -> (ph "s" :: common) @ [ ("id", Json.int flow) ]
    | Event.Flow_end flow ->
        (ph "f" :: ("bp", Json.Str "e") :: common) @ [ ("id", Json.int flow) ])

(* The one piece of layout outside [Support.Json]: one trace event per
   line, each a [Json.to_string] record, so large traces stay diffable. *)
let to_json timeline =
  let lanes = lanes timeline in
  let records =
    List.map Json.to_string
      (metadata_events lanes @ List.map event_json (Event.by_time timeline))
  in
  let other =
    Json.Obj
      [
        ("events", Json.int (Event.length timeline));
      ]
  in
  Printf.sprintf {|{"displayTimeUnit":"ms","otherData":%s,"traceEvents":[%s]}|}
    (Json.to_string other) (String.concat ",\n" records)
