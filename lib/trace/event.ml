type lane = {
  track : int;
  track_label : string;
  index : int;
  label : string;
}

type arg = Str of string | Num of float | Count of int

type kind =
  | Span of float
  | Instant
  | Flow_start of int
  | Flow_end of int

type t = {
  time : float;
  name : string;
  cat : string;
  lane : lane;
  args : (string * arg) list;
  kind : kind;
}

type timeline = { mutable events_rev : t list; mutable n : int }

let create () = { events_rev = []; n = 0 }

let add tl ev =
  tl.events_rev <- ev :: tl.events_rev;
  tl.n <- tl.n + 1

let append tl src =
  tl.events_rev <- List.rev_append (List.rev src.events_rev) tl.events_rev;
  tl.n <- tl.n + src.n

let length tl = tl.n
let events tl = List.rev tl.events_rev

let by_time tl =
  List.stable_sort (fun a b -> Float.compare a.time b.time) (events tl)

let span tl ~lane ~cat ?(args = []) ~name ~time ~dur () =
  add tl { time; name; cat; lane; args; kind = Span dur }

let instant tl ~lane ~cat ?(args = []) ~name ~time () =
  add tl { time; name; cat; lane; args; kind = Instant }

let flow_start tl ~lane ~cat ?(name = "msg") ~flow ~time () =
  add tl { time; name; cat; lane; args = []; kind = Flow_start flow }

let flow_end tl ~lane ~cat ?(name = "msg") ~flow ~time () =
  add tl { time; name; cat; lane; args = []; kind = Flow_end flow }

let compile_track = 0
let env_track = 1
let links_track = 2
let processor_track p = 3 + p

(* Far above any plausible processor count, so pool lanes never collide
   with processor tracks. *)
let pool_track = 1_000_000

(* Just below the pool: SLO alerts sort after every processor lane but
   before the domain-pool telemetry. *)
let slo_track = 999_999

let compile_lane =
  { track = compile_track; track_label = "toolchain"; index = 0; label = "passes" }

let env_lane =
  { track = env_track; track_label = "environment"; index = 0; label = "inject" }

let link_lane ~src ~dst ~nprocs =
  {
    track = links_track;
    track_label = "links";
    index = (src * nprocs) + dst;
    label = Printf.sprintf "P%d->P%d" src dst;
  }

let processor_lane ~proc ~pid ~name =
  {
    track = processor_track proc;
    track_label = Printf.sprintf "P%d" proc;
    index = pid;
    label = name;
  }

let cpu_lane proc =
  {
    track = processor_track proc;
    track_label = Printf.sprintf "P%d" proc;
    index = -1;
    label = "cpu";
  }

let slo_lane ~index ~label =
  { track = slo_track; track_label = "slo"; index; label }

let pool_lane domain =
  {
    track = pool_track;
    track_label = "domain pool";
    index = domain;
    label = Printf.sprintf "domain %d" domain;
  }
