let us t = t *. 1e6

(* %.3f keeps the export deterministic (no shortest-round-trip formatting)
   and gives nanosecond resolution on microsecond timestamps. *)
let num f = Printf.sprintf "%.3f" f

let arg_value = function
  | Event.Str s -> Printf.sprintf "\"%s\"" (Support.Json.escape s)
  | Event.Num f -> num f
  | Event.Count i -> string_of_int i

let args_json args =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":%s" (Support.Json.escape k) (arg_value v))
         args)
  ^ "}"

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
  let tracks =
    List.sort_uniq compare
      (List.map (fun l -> (l.Event.track, l.Event.track_label)) lanes)
  in
  List.concat_map
    (fun (pid, label) ->
      [
        Printf.sprintf
          {|{"ph":"M","pid":%d,"name":"process_name","args":{"name":"%s"}}|} pid
          (Support.Json.escape label);
        Printf.sprintf
          {|{"ph":"M","pid":%d,"name":"process_sort_index","args":{"sort_index":%d}}|}
          pid pid;
      ])
    tracks
  @ List.concat_map
      (fun l ->
        [
          Printf.sprintf
            {|{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"%s"}}|}
            l.Event.track l.Event.index (Support.Json.escape l.Event.label);
          Printf.sprintf
            {|{"ph":"M","pid":%d,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}|}
            l.Event.track l.Event.index l.Event.index;
        ])
      lanes

let event_json (e : Event.t) =
  let common =
    Printf.sprintf {|"pid":%d,"tid":%d,"ts":%s,"name":"%s","cat":"%s"|}
      e.lane.Event.track e.lane.Event.index (num (us e.time))
      (Support.Json.escape e.name) (Support.Json.escape e.cat)
  in
  match e.kind with
  | Event.Span dur ->
      let args = if e.args = [] then "" else ",\"args\":" ^ args_json e.args in
      Printf.sprintf {|{"ph":"X",%s,"dur":%s%s}|} common (num (us dur)) args
  | Event.Instant ->
      let args = if e.args = [] then "" else ",\"args\":" ^ args_json e.args in
      Printf.sprintf {|{"ph":"i",%s,"s":"t"%s}|} common args
  | Event.Flow_start flow -> Printf.sprintf {|{"ph":"s",%s,"id":%d}|} common flow
  | Event.Flow_end flow ->
      Printf.sprintf {|{"ph":"f","bp":"e",%s,"id":%d}|} common flow
  | Event.Counter values ->
      Printf.sprintf {|{"ph":"C",%s,"args":%s}|} common
        (args_json (List.map (fun (k, v) -> (k, Event.Num v)) values))

let to_json timeline =
  let lanes = lanes timeline in
  let body =
    metadata_events lanes @ List.map event_json (Event.by_time timeline)
  in
  Printf.sprintf
    {|{"displayTimeUnit":"ms","otherData":{"truncated":%b,"events":%d},"traceEvents":[%s]}|}
    (Event.truncated timeline) (Event.length timeline)
    (String.concat ",\n" body)
