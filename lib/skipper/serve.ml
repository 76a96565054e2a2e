module Json = Support.Json
module Metrics = Support.Metrics
module Log = Support.Log
module Event = Skipper_trace.Event

exception Protocol_error of string

let protocol_error fmt =
  Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Framing: 4-byte big-endian length, then that many bytes of JSON.    *)

(* A frame larger than this is a protocol desync (or a hostile peer), not
   a plausible batch; fail before allocating the "length". *)
let max_frame = 64 * 1024 * 1024

(* [single_write] makes one [write] call, so a signal that interrupts it
   ([EINTR]) has written nothing and the call is simply made again; a
   partial write continues from where it stopped. *)
let rec write_all fd b off n =
  if off < n then
    match Unix.single_write fd b off (n - off) with
    | k -> write_all fd b (off + k) n
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd b off n

(* The length prefix and the payload go out in one buffer: one [write] per
   frame of up to 64 KiB, so the peer wakes once per frame, not once for
   the prefix and again for the payload. *)
let write_frame fd payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  write_all fd b 0 (4 + n)

(* The read distinguishes a clean close (EOF exactly on a frame boundary)
   from a peer vanishing mid-frame — a partial length prefix or a
   truncated payload. On the server the latter is an aborted frame:
   logged, counted, and never allowed to take the serve loop down; the
   client reads its reply the same way and turns either into an [Error]. *)

type incoming = Frame of string | Closed | Aborted of string

type chunk = Complete of bytes | Empty | Short

let read_chunk fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then Complete buf
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> if off = 0 then Empty else Short
      | k -> go (off + k)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

let recv fd =
  match read_chunk fd 4 with
  | Empty -> Closed
  | Short -> Aborted "partial length prefix"
  | Complete hdr ->
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if len < 0 || len > max_frame then
        protocol_error "frame length %d out of range" len;
      if len = 0 then Frame ""
      else (
        match read_chunk fd len with
        | Complete b -> Frame (Bytes.to_string b)
        | Empty | Short ->
            Aborted (Printf.sprintf "truncated payload (expected %d bytes)" len))

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

type config = {
  table_of : string -> Skel.Funtable.t;
  input_of : string -> Skel.Value.t option;
  arch_of : int -> Archi.t;
  store : Support.Store.t option;
  jobs : int;
  log : Log.t;
  metrics : Metrics.t option;
  timeline : Event.timeline option;
}

type request =
  | Compile of { app : string; src : string; frames : int; optimize : bool }
  | Run of {
      app : string;
      src : string;
      frames : int;
      optimize : bool;
      procs : int;
      strategy : string;
    }
  | Stats
  | Metrics_dump
  | Shutdown

let str_field j k = Option.bind (Json.member k j) Json.to_str

(* Past these, one request could exhaust the daemon's memory: see serve.mli *)
let max_procs = 1024
let max_frames = 1000

(* A count field: absent means [default]; present, it must be an integral
   number from 1 to [cap]. Non-finite numbers are not integral. *)
let count_field j k ~cap default =
  match Json.member k j with
  | None -> Ok default
  | Some v -> (
      match Json.to_float v with
      | Some f when Float.is_integer f && f >= 1.0 && f <= float_of_int cap ->
          Ok (int_of_float f)
      | _ ->
          Error
            (Printf.sprintf "%S must be an integer from 1 to %d, got %s" k cap
               (Json.to_string v)))

let bool_field j k default =
  match Json.member k j with Some (Json.Bool b) -> b | _ -> default

let parse_request j =
  let ( let* ) = Result.bind in
  match str_field j "op" with
  | Some "compile" -> (
      match (str_field j "app", str_field j "src") with
      | Some app, Some src ->
          let* frames = count_field j "frames" ~cap:max_frames 1 in
          Ok (Compile { app; src; frames; optimize = bool_field j "optimize" false })
      | _ -> Error "compile needs \"app\" and \"src\" fields")
  | Some "run" -> (
      match (str_field j "app", str_field j "src") with
      | Some app, Some src ->
          let* frames = count_field j "frames" ~cap:max_frames 1 in
          let* procs = count_field j "procs" ~cap:max_procs 4 in
          Ok
            (Run
               {
                 app;
                 src;
                 frames;
                 optimize = bool_field j "optimize" false;
                 procs;
                 strategy =
                   Option.value (str_field j "strategy") ~default:"canonical";
               })
      | _ -> Error "run needs \"app\" and \"src\" fields")
  | Some "stats" -> Ok Stats
  | Some "metrics" -> Ok Metrics_dump
  | Some "shutdown" -> Ok Shutdown
  | Some op -> Error (Printf.sprintf "unknown op %S" op)
  | None -> Error "request without an \"op\" field"

let op_name = function
  | Compile _ -> "compile"
  | Run _ -> "run"
  | Stats -> "stats"
  | Metrics_dump -> "metrics"
  | Shutdown -> "shutdown"

(* ------------------------------------------------------------------ *)
(* Server state and instruments                                        *)

let ok fields = Json.Obj (("status", Json.Str "ok") :: fields)

let err msg =
  Json.Obj [ ("status", Json.Str "error"); ("message", Json.Str msg) ]

let cache_json cache =
  let hits, misses = Passes.cache_stats cache in
  Json.Obj
    [
      ("hits", Json.int hits);
      ("misses", Json.int misses);
      ("store_hits", Json.int (Passes.store_hits cache));
    ]

(* The store's counters, each with its [stats] key and the help text of
   the registry counter [skipper_store_<key>_total] that mirrors it. *)
let store_counters =
  let module S = Support.Store in
  [
    ("hits", "Store lookups served from disk", fun c -> c.S.hits);
    ("misses", "Store lookups that found no usable entry", fun c -> c.S.misses);
    ("absent", "Store misses: no entry file", fun c -> c.S.absent);
    ("corrupt", "Store misses: entry unreadable", fun c -> c.S.corrupt);
    ( "stamp_mismatch",
      "Store misses: entry from another format stamp",
      fun c -> c.S.stamp_mismatch );
    ("writes", "Store entries written", fun c -> c.S.writes);
    ( "evictions",
      "Store entries evicted over the size limit",
      fun c -> c.S.evictions );
    ("bytes_read", "Store payload bytes read by hits", fun c -> c.S.bytes_read);
    ("bytes_written", "Store payload bytes written", fun c -> c.S.bytes_written);
  ]

let store_json = function
  | None -> Json.Null
  | Some store ->
      let c = Support.Store.counters store in
      Json.Obj
        (List.map (fun (key, _, field) -> (key, Json.int (field c))) store_counters)

type server = {
  cfg : config;
  memory : Passes.memory;  (** every request's front-end memory tier *)
  reg : Metrics.t;
  start_s : float;  (** daemon start, [Unix.gettimeofday] *)
  mutable nclients : int;
  mutable next_req : int;  (** request-id counter; ids are ["r<N>"] *)
  c_requests : Metrics.counter;
  c_errors : Metrics.counter;
  c_batches : Metrics.counter;
  c_aborted : Metrics.counter;
  c_bytes_read : Metrics.counter;
  c_bytes_written : Metrics.counter;
  c_cache_hits : Metrics.counter;
  c_cache_misses : Metrics.counter;
  c_cache_store_hits : Metrics.counter;
  g_clients : Metrics.gauge;
  g_queue : Metrics.gauge;
}

let make_server cfg =
  let reg = match cfg.metrics with Some r -> r | None -> Metrics.create () in
  let c = Metrics.counter reg and g = Metrics.gauge reg in
  {
    cfg;
    memory = Passes.create_memory ();
    reg;
    start_s = Unix.gettimeofday ();
    nclients = 0;
    next_req = 0;
    c_requests =
      c ~help:"Requests received (including unparseable ones)"
        "skipper_serve_requests_total";
    c_errors = c ~help:"Requests answered with an error" "skipper_serve_errors_total";
    c_batches = c ~help:"Frames (batches) handled" "skipper_serve_batches_total";
    c_aborted =
      c ~help:"Frames dropped because the client vanished mid-frame"
        "skipper_serve_aborted_frames";
    c_bytes_read = c ~help:"Frame bytes read, headers included"
        "skipper_serve_bytes_read_total";
    c_bytes_written = c ~help:"Frame bytes written, headers included"
        "skipper_serve_bytes_written_total";
    c_cache_hits =
      c ~help:"Pass-cache hits (memory or store) across requests"
        "skipper_serve_cache_hits_total";
    c_cache_misses =
      c ~help:"Pass-cache misses (the stage ran) across requests"
        "skipper_serve_cache_misses_total";
    c_cache_store_hits =
      c ~help:"Pass-cache misses answered by the persistent store"
        "skipper_serve_cache_store_hits_total";
    g_clients = g ~help:"Connected clients" "skipper_serve_clients";
    g_queue =
      g ~help:"Requests of the batch currently being farmed"
        "skipper_serve_queue_depth";
  }

let memory_json (m : Passes.memory_stats) =
  Json.Obj
    [
      ("entries", Json.int m.entries);
      ("words", Json.int m.words);
      ("budget_words", Json.int Passes.memory_budget_words);
      ("evictions", Json.int m.evictions);
    ]

(* Mirror the memory tier's and the shared store's own counters into the
   registry, so one scrape carries serve-, memory- and store-side tallies.
   Called right before each snapshot (stats/metrics responses and
   shutdown). *)
let sync_tiers s =
  let m = Passes.memory_stats s.memory in
  Metrics.set_gauge
    (Metrics.gauge s.reg ~help:"Front-end entries held in the daemon's memory"
       "skipper_serve_memory_entries")
    (float_of_int m.entries);
  Metrics.set_gauge
    (Metrics.gauge s.reg
       ~help:"Heap words the daemon's memory entries take, at most its budget"
       "skipper_serve_memory_words")
    (float_of_int m.words);
  Metrics.set
    (Metrics.counter s.reg ~help:"Memory entries evicted over the budget"
       "skipper_serve_memory_evictions_total")
    m.evictions;
  match s.cfg.store with
  | None -> ()
  | Some store ->
      let c = Support.Store.counters store in
      List.iter
        (fun (key, help, field) ->
          Metrics.set
            (Metrics.counter s.reg ~help ("skipper_store_" ^ key ^ "_total"))
            (field c))
        store_counters

let uptime_s s = Unix.gettimeofday () -. s.start_s

let stats_fields s =
  sync_tiers s;
  [
    ("requests", Json.int (Metrics.value s.c_requests));
    ("batches", Json.int (Metrics.value s.c_batches));
    ("errors", Json.int (Metrics.value s.c_errors));
    ("aborted_frames", Json.int (Metrics.value s.c_aborted));
    ("clients", Json.int s.nclients);
    ("uptime_s", Json.Num (uptime_s s));
    ("memory", memory_json (Passes.memory_stats s.memory));
    ("store", store_json s.cfg.store);
    ("metrics", Metrics.json s.reg);
  ]

(* ------------------------------------------------------------------ *)
(* Handlers                                                            *)

(* What a worker returns: the response plus everything the dispatcher
   needs to account for the request. All registry, log and timeline
   updates happen on the dispatching domain, in submit order, so the
   daemon's deterministic observability surfaces (log bytes under a
   pinned clock, histogram sums) do not depend on [--jobs]. *)
type outcome = {
  resp : Json.t;
  out_op : string;
  out_ok : bool;
  out_wall : float;  (** seconds *)
  out_cache : (int * int * int) option;  (** hits, misses, store hits *)
}

let compile_fields s ~app ~src ~frames ~optimize =
  let table = s.cfg.table_of app in
  let cache = Passes.create_cache ?store:s.cfg.store ~memory:s.memory () in
  let compiled = Pipeline.compile_source ~frames ~optimize ~cache ~table src in
  let fields =
    [
      ( "graph_digest",
        Json.Str
          (Passes.fingerprint compiled.Pipeline.log
             (Stage.Graph compiled.Pipeline.graph)) );
      ("cache", cache_json cache);
    ]
  in
  (compiled, fields, cache)

let handle_request s req =
  let cfg = s.cfg in
  let t0 = Unix.gettimeofday () in
  let cache_taken = ref None in
  let timed op fields =
    ok
      (("op", Json.Str op) :: fields
      @ [ ("wall_ms", Json.Num ((Unix.gettimeofday () -. t0) *. 1e3)) ])
  in
  let resp =
    try
      match req with
      | Compile { app; src; frames; optimize } ->
          let _, fields, cache = compile_fields s ~app ~src ~frames ~optimize in
          cache_taken := Some cache;
          timed "compile" fields
      | Run { app; src; frames; optimize; procs; strategy } ->
          let compiled, fields, cache =
            compile_fields s ~app ~src ~frames ~optimize
          in
          cache_taken := Some cache;
          let input = cfg.input_of app in
          let result =
            Pipeline.execute ?input ~strategy compiled (cfg.arch_of procs)
          in
          timed "run"
            (fields
            @ [
                ("value", Json.Str (Skel.Value.to_string result.Executive.value));
                ("frames", Json.int (List.length result.Executive.outputs));
                ( "messages",
                  Json.int result.Executive.stats.Machine.Sim.messages );
              ])
      | Stats -> timed "stats" (stats_fields s)
      | Metrics_dump ->
          sync_tiers s;
          timed "metrics" [ ("exposition", Json.Str (Metrics.to_prometheus s.reg)) ]
      | Shutdown -> timed "shutdown" []
    with
    | Passes.Pass_error m -> err ("compile error: " ^ m)
    | Executive.Executive_error m -> err ("executive error: " ^ m)
    | Failure m | Invalid_argument m -> err m
  in
  let is_ok =
    match Json.member "status" resp with Some (Json.Str "ok") -> true | _ -> false
  in
  {
    resp;
    out_op = op_name req;
    out_ok = is_ok;
    out_wall = Unix.gettimeofday () -. t0;
    out_cache =
      Option.map
        (fun c ->
          let h, m = Passes.cache_stats c in
          (h, m, Passes.store_hits c))
        !cache_taken;
  }

let latency_hist s op =
  Metrics.histogram s.reg
    ~help:"Request handling latency by op, seconds"
    ~labels:[ ("op", op) ] "skipper_serve_request_seconds"

(* Dispatcher-side accounting for one finished request. *)
let account s ~req_id (o : outcome) =
  Metrics.observe (latency_hist s o.out_op) o.out_wall;
  if not o.out_ok then Metrics.incr s.c_errors;
  Option.iter
    (fun (h, m, sh) ->
      Metrics.add s.c_cache_hits h;
      Metrics.add s.c_cache_misses m;
      Metrics.add s.c_cache_store_hits sh)
    o.out_cache;
  Log.info s.cfg.log ~req:req_id
    ~fields:
      [
        ("op", Json.Str o.out_op);
        ("status", Json.Str (if o.out_ok then "ok" else "error"));
        ("wall_ms", Json.Num (o.out_wall *. 1e3));
      ]
    "request"

(* Lay the batch's per-request spans on the unified timeline, one lane per
   pool domain, times relative to daemon start — the daemon counterpart of
   [Skipper_trace.Pool.to_json]. *)
let emit_spans s ~t0 ~ids ~ops (stats : Support.Domain_pool.stats) =
  match s.cfg.timeline with
  | None -> ()
  | Some tl ->
      let off = t0 -. s.start_s in
      List.iter
        (fun (sp : Support.Domain_pool.span) ->
          let id = List.nth_opt ids sp.Support.Domain_pool.job in
          let op = List.nth_opt ops sp.Support.Domain_pool.job in
          Event.span tl
            ~lane:(Event.pool_lane sp.Support.Domain_pool.domain)
            ~cat:"serve"
            ~args:
              [
                ("req", Event.Str (Option.value id ~default:"?"));
                ("op", Event.Str (Option.value op ~default:"?"));
              ]
            ~name:
              (Printf.sprintf "%s:%s"
                 (Option.value id ~default:"?")
                 (Option.value op ~default:"?"))
            ~time:(off +. sp.Support.Domain_pool.start_s)
            ~dur:
              (sp.Support.Domain_pool.finish_s
              -. sp.Support.Domain_pool.start_s)
            ())
        stats.Support.Domain_pool.spans

(* One frame = one batch. Requests are independent, so they are farmed on
   the domain pool; responses come back in request order (Domain_pool's
   submit-order guarantee), which is the protocol's pairing rule. *)
let handle_batch s ~client payload =
  match Json.parse payload with
  | Error m ->
      Metrics.incr s.c_batches;
      Log.warn s.cfg.log
        ~fields:[ ("client", Json.Str client); ("error", Json.Str m) ]
        "bad_batch";
      ([ err ("bad request: " ^ m) ], false)
  | Ok json ->
      let reqs =
        match Option.bind (Json.member "requests" json) Json.to_list with
        | Some l -> l
        | None -> [ json ] (* a bare request is a batch of one *)
      in
      let parsed = List.map parse_request reqs in
      let ids =
        List.map
          (fun _ ->
            let id = Printf.sprintf "r%d" s.next_req in
            s.next_req <- s.next_req + 1;
            id)
          parsed
      in
      let ops =
        List.map
          (function Ok r -> op_name r | Error _ -> "invalid")
          parsed
      in
      Metrics.incr s.c_batches;
      Metrics.add s.c_requests (List.length reqs);
      Log.debug s.cfg.log
        ~fields:
          [
            ("client", Json.Str client);
            ("requests", Json.int (List.length reqs));
            ("ids", Json.Arr (List.map (fun i -> Json.Str i) ids));
          ]
        "batch_parsed";
      Metrics.set_gauge s.g_queue (float_of_int (List.length reqs));
      let t0 = Unix.gettimeofday () in
      let outcomes, pool_stats =
        Passes.with_snapshot s.memory @@ fun () ->
        Support.Domain_pool.run_stats ~jobs:s.cfg.jobs
          (List.map
             (fun p () ->
               match p with
               | Error m ->
                   let t = Unix.gettimeofday () in
                   {
                     resp = err m;
                     out_op = "invalid";
                     out_ok = false;
                     out_wall = Unix.gettimeofday () -. t;
                     out_cache = None;
                   }
               | Ok req -> handle_request s req)
             parsed)
      in
      Metrics.set_gauge s.g_queue 0.0;
      List.iter2 (fun id o -> account s ~req_id:id o) ids outcomes;
      let domains = pool_stats.Support.Domain_pool.domains in
      for d = 0 to domains - 1 do
        Metrics.add_gauge
          (Metrics.gauge s.reg
             ~help:"Cumulative busy seconds per pool domain"
             ~labels:[ ("domain", string_of_int d) ]
             "skipper_serve_domain_busy_seconds")
          pool_stats.Support.Domain_pool.busy_s.(d)
      done;
      emit_spans s ~t0 ~ids ~ops pool_stats;
      let shutdown =
        List.exists (function Ok Shutdown -> true | _ -> false) parsed
      in
      (List.map (fun o -> o.resp) outcomes, shutdown)

(* ------------------------------------------------------------------ *)
(* Server loop                                                         *)

let serve cfg ~socket () =
  (* A client that hangs up before its reply must cost the daemon that
     client only: with SIGPIPE ignored the reply's write fails with EPIPE,
     which the loop below counts as an io_error drop. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let s = make_server cfg in
  (* clients carry a stable id for the log ("c0", "c1", ...) *)
  let clients = ref [] in
  let next_client = ref 0 in
  let close_quietly c = try Unix.close c with Unix.Unix_error _ -> () in
  let client_id c =
    match List.assq_opt c !clients with Some id -> id | None -> "c?"
  in
  let set_clients () =
    s.nclients <- List.length !clients;
    Metrics.set_gauge s.g_clients (float_of_int s.nclients)
  in
  let drop ?(reason = "eof") client =
    Log.info cfg.log
      ~fields:
        [ ("client", Json.Str (client_id client)); ("reason", Json.Str reason) ]
      "client_disconnected";
    clients := List.filter (fun (c, _) -> c != client) !clients;
    set_clients ();
    close_quietly client
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (c, _) -> close_quietly c) !clients;
      Unix.close fd;
      try Unix.unlink socket with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind fd (Unix.ADDR_UNIX socket);
      Unix.listen fd 16;
      Log.info cfg.log
        ~fields:[ ("socket", Json.Str socket); ("jobs", Json.int cfg.jobs) ]
        "listening";
      let stop = ref false in
      (* The listener and every connected client are polled together with
         select, and each readable client is served one frame per round.
         An idle or slow client therefore never blocks another client's
         connection or requests — only the frame actually being handled
         occupies the server. Connection order still decides nothing;
         frame arrival order does. *)
      while not !stop do
        match Unix.select (fd :: List.map fst !clients) [] [] (-1.0) with
        | exception Unix.Unix_error (EINTR, _, _) -> ()
        | readable, _, _ ->
            List.iter
              (fun r ->
                if r = fd then begin
                  (* a signal during the accept: the peer is still queued
                     and the next select reports it again *)
                  match Unix.accept fd with
                  | exception Unix.Unix_error (EINTR, _, _) -> ()
                  | client, _ ->
                      let id = Printf.sprintf "c%d" !next_client in
                      incr next_client;
                      clients := !clients @ [ (client, id) ];
                      set_clients ();
                      Log.info cfg.log
                        ~fields:[ ("client", Json.Str id) ]
                        "client_connected"
                end
                else if not !stop then
                  let id = client_id r in
                  match recv r with
                  | Closed -> drop r
                  | Aborted reason ->
                      Metrics.incr s.c_aborted;
                      Log.warn cfg.log
                        ~fields:
                          [
                            ("client", Json.Str id);
                            ("reason", Json.Str reason);
                          ]
                        "aborted_frame";
                      drop ~reason:"aborted_frame" r
                  | exception Protocol_error m ->
                      Log.warn cfg.log
                        ~fields:
                          [ ("client", Json.Str id); ("error", Json.Str m) ]
                        "protocol_error";
                      drop ~reason:"protocol_error" r
                  | exception Unix.Unix_error (e, _, _) ->
                      Log.warn cfg.log
                        ~fields:
                          [
                            ("client", Json.Str id);
                            ("error", Json.Str (Unix.error_message e));
                          ]
                        "client_io_error";
                      drop ~reason:"io_error" r
                  | Frame frame -> (
                      Metrics.add s.c_bytes_read (4 + String.length frame);
                      Log.debug cfg.log
                        ~fields:
                          [
                            ("client", Json.Str id);
                            ("bytes", Json.int (String.length frame));
                          ]
                        "batch_accepted";
                      let t0 = Unix.gettimeofday () in
                      match
                        let responses, shutdown = handle_batch s ~client:id frame in
                        let reply =
                          Json.to_string
                            (Json.Obj [ ("responses", Json.Arr responses) ])
                        in
                        write_frame r reply;
                        Metrics.add s.c_bytes_written (4 + String.length reply);
                        Log.debug cfg.log
                          ~fields:
                            [
                              ("client", Json.Str id);
                              ("bytes", Json.int (String.length reply));
                              ( "wall_ms",
                                Json.Num ((Unix.gettimeofday () -. t0) *. 1e3)
                              );
                            ]
                          "batch_replied";
                        shutdown
                      with
                      | shutdown -> if shutdown then stop := true
                      | exception Unix.Unix_error (e, _, _) ->
                          Log.warn cfg.log
                            ~fields:
                              [
                                ("client", Json.Str id);
                                ("error", Json.Str (Unix.error_message e));
                              ]
                            "client_io_error";
                          drop ~reason:"io_error" r))
              readable
      done;
      sync_tiers s;
      Log.info cfg.log
        ~fields:
          [
            ("requests", Json.int (Metrics.value s.c_requests));
            ("uptime_s", Json.Num (uptime_s s));
          ]
        "shutdown");
  Metrics.value s.c_requests

(* ------------------------------------------------------------------ *)
(* Client                                                              *)

let connect ?(retries = 50) ?(delay = 0.1) socket =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) when n > 0 ->
        Unix.close fd;
        Unix.sleepf delay;
        go (n - 1)
    | exception Unix.Unix_error (EINTR, _, _) ->
        (* a fresh socket: an interrupted connect may still complete *)
        Unix.close fd;
        go n
    | exception e ->
        Unix.close fd;
        raise e
  in
  go retries

let rpc fd requests =
  write_frame fd (Json.to_string (Json.Obj [ ("requests", Json.Arr requests) ]));
  match recv fd with
  | Closed -> Error "daemon closed the connection without a reply"
  | Aborted reason -> Error ("daemon reply cut short: " ^ reason)
  | Frame payload -> (
      match Json.parse payload with
      | Error m -> Error ("bad response frame: " ^ m)
      | Ok json -> (
          match Option.bind (Json.member "responses" json) Json.to_list with
          | Some rs when List.length rs = List.length requests -> Ok rs
          | Some rs ->
              Error
                (Printf.sprintf "expected %d responses, got %d"
                   (List.length requests) (List.length rs))
          | None -> Error "response without a \"responses\" array"))

let call ?retries ?delay ~socket requests =
  (* A daemon that hangs up before the request is written must not kill
     the client: with SIGPIPE ignored the write fails with EPIPE instead. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match connect ?retries ?delay socket with
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e))
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          try rpc fd requests with
          | Unix.Unix_error (((EPIPE | ECONNRESET) as e), _, _) ->
              Error ("daemon closed the connection: " ^ Unix.error_message e)
          | Protocol_error m -> Error ("bad response frame: " ^ m))

(* Request builders, so clients do not hand-roll the field names. *)

let req_compile ?(frames = 1) ?(optimize = false) ~app src =
  Json.Obj
    [
      ("op", Json.Str "compile");
      ("app", Json.Str app);
      ("src", Json.Str src);
      ("frames", Json.int frames);
      ("optimize", Json.Bool optimize);
    ]

let req_run ?(frames = 1) ?(optimize = false) ?(strategy = "canonical") ~procs
    ~app src =
  Json.Obj
    [
      ("op", Json.Str "run");
      ("app", Json.Str app);
      ("src", Json.Str src);
      ("frames", Json.int frames);
      ("optimize", Json.Bool optimize);
      ("procs", Json.int procs);
      ("strategy", Json.Str strategy);
    ]

let req_stats = Json.Obj [ ("op", Json.Str "stats") ]
let req_metrics = Json.Obj [ ("op", Json.Str "metrics") ]
let req_shutdown = Json.Obj [ ("op", Json.Str "shutdown") ]

(* ------------------------------------------------------------------ *)
(* The `skipperc top` view                                             *)

(* Renders a stats response (the ok/"op":"stats" object) as a one-screen
   text dashboard. Pure function of the JSON, so it is unit-testable and
   `skipperc top` is a thin fetch-and-print loop around it. *)
let render_top stats =
  let buf = Buffer.create 1024 in
  let fnum j k = match Option.bind (Json.member k j) Json.to_float with
    | Some f -> f
    | None -> 0.0
  in
  let inum j k = int_of_float (fnum j k) in
  let uptime = fnum stats "uptime_s" in
  let requests = inum stats "requests" in
  let rate = if uptime > 0.0 then float_of_int requests /. uptime else 0.0 in
  Buffer.add_string buf
    (Printf.sprintf "skipperc serve — up %.1fs, %d client(s)\n" uptime
       (inum stats "clients"));
  Buffer.add_string buf
    (Printf.sprintf
       "requests %d (%.1f/s)   batches %d   errors %d   aborted frames %d\n"
       requests rate (inum stats "batches") (inum stats "errors")
       (inum stats "aborted_frames"));
  let metrics =
    Option.value (Json.member "metrics" stats) ~default:(Json.Obj [])
  in
  let section k =
    match Option.bind (Json.member k metrics) Json.to_list with
    | Some l -> l
    | None -> []
  in
  let counter_value name =
    List.fold_left
      (fun acc j ->
        match Option.bind (Json.member "name" j) Json.to_str with
        | Some n when n = name -> int_of_float (fnum j "value")
        | _ -> acc)
      0 (section "counters")
  in
  let ch = counter_value "skipper_serve_cache_hits_total" in
  let cm = counter_value "skipper_serve_cache_misses_total" in
  let csh = counter_value "skipper_serve_cache_store_hits_total" in
  let ratio =
    if ch + cm > 0 then 100.0 *. float_of_int ch /. float_of_int (ch + cm)
    else 0.0
  in
  Buffer.add_string buf
    (Printf.sprintf
       "cache: hits %d   misses %d   store hits %d   hit ratio %.1f%%\n" ch cm
       csh ratio);
  (match Json.member "store" stats with
  | Some (Json.Obj _ as st) ->
      Buffer.add_string buf
        (Printf.sprintf
           "store: hits %d   absent %d   corrupt %d   stale %d   writes %d   evictions %d\n"
           (inum st "hits") (inum st "absent") (inum st "corrupt")
           (inum st "stamp_mismatch") (inum st "writes") (inum st "evictions"))
  | _ -> ());
  let hists =
    List.filter
      (fun j ->
        match Option.bind (Json.member "name" j) Json.to_str with
        | Some "skipper_serve_request_seconds" -> true
        | _ -> false)
      (section "histograms")
  in
  if hists <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "%-10s %8s %10s %10s %10s\n" "op" "count" "p50_ms"
         "p95_ms" "p99_ms");
    List.iter
      (fun h ->
        let op =
          match
            Option.bind (Json.member "labels" h) (Json.member "op")
            |> Fun.flip Option.bind Json.to_str
          with
          | Some o -> o
          | None -> "?"
        in
        Buffer.add_string buf
          (Printf.sprintf "%-10s %8d %10.2f %10.2f %10.2f\n" op
             (inum h "count")
             (fnum h "p50" *. 1e3)
             (fnum h "p95" *. 1e3)
             (fnum h "p99" *. 1e3)))
      hists
  end;
  let busy =
    List.filter_map
      (fun j ->
        match Option.bind (Json.member "name" j) Json.to_str with
        | Some "skipper_serve_domain_busy_seconds" ->
            let d =
              match
                Option.bind (Json.member "labels" j) (Json.member "domain")
                |> Fun.flip Option.bind Json.to_str
              with
              | Some d -> d
              | None -> "?"
            in
            Some (d, fnum j "value")
        | _ -> None)
      (section "gauges")
  in
  if busy <> [] && uptime > 0.0 then begin
    Buffer.add_string buf "domains:";
    List.iter
      (fun (d, b) ->
        Buffer.add_string buf
          (Printf.sprintf "  d%s %.1f%%" d (100.0 *. b /. uptime)))
      busy;
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf
