(* Structured JSONL logging. The mutex serialises sequence assignment and
   the sink call together, so a line's seq always matches its position in
   the sink's output even under concurrent writers. *)

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Ok Debug
  | "info" -> Ok Info
  | "warn" | "warning" -> Ok Warn
  | "error" -> Ok Error
  | other ->
      Error
        (Printf.sprintf "unknown log level %S (expected debug, info, warn or error)"
           other)

type t = {
  level : level;
  clock : unit -> float;
  sink : string -> unit;
  mu : Mutex.t;
  mutable seq : int;
}

let create ?(level = Info) ?(clock = Unix.gettimeofday) sink =
  { level; clock; sink; mu = Mutex.create (); seq = 0 }

let to_channel ?level oc =
  create ?level (fun line ->
      Out_channel.output_string oc line;
      Out_channel.output_char oc '\n';
      Out_channel.flush oc)

let null = create ~level:Error (fun _ -> ())

let enabled t lvl = t != null && severity lvl >= severity t.level

let log t lvl ?req ?(fields = []) event =
  if enabled t lvl then begin
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        let seq = t.seq in
        t.seq <- seq + 1;
        let line =
          Json.Obj
            ([
               ("seq", Json.int seq);
               ("ts_s", Json.Num (t.clock ()));
               ("level", Json.Str (level_name lvl));
               ("event", Json.Str event);
             ]
            @ (match req with
              | Some r -> [ ("req", Json.Str r) ]
              | None -> [])
            @ fields)
        in
        t.sink (Json.to_string line))
  end

let debug t ?req ?fields event = log t Debug ?req ?fields event
let info t ?req ?fields event = log t Info ?req ?fields event
let warn t ?req ?fields event = log t Warn ?req ?fields event
let error t ?req ?fields event = log t Error ?req ?fields event
let sequence t = t.seq
