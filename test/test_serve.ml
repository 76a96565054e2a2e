(* Smoke tests for the compile daemon: a real server domain on a temp
   Unix socket backed by a temp store, exercised through real client
   connections — plus pure request-parsing checks that need no daemon.
   The end-to-end test: two clients, identical artifacts, the second
   compile fully warm from the daemon's memory, a bad request that errors
   without killing its batch, a clean counted shutdown, and a second
   daemon over the same store whose first compile is warm from the store. *)

module Serve = Skipper_lib.Serve
module Passes = Skipper_lib.Passes
module Json = Support.Json
module V = Skel.Value

let simple_table () =
  Skel.Funtable.of_list
    [
      ("sq", 1, (fun v -> V.Int (V.to_int v * V.to_int v)), fun _ -> 1000.0);
      ( "plus",
        2,
        (fun v ->
          let a, b = V.to_pair v in
          V.Int (V.to_int a + V.to_int b)),
        fun _ -> 100.0 );
    ]

let simple_src =
  {|external sq : int -> int
external plus : int -> int -> int
let main = fun xs -> df 3 sq plus 0 xs|}

let tmp_name prefix =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s.%d" prefix (Unix.getpid ()))

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response missing %S: %s" name (Json.to_string j)

let str name j =
  match Json.to_str (field name j) with
  | Some s -> s
  | None -> Alcotest.failf "field %S is not a string" name

let numf name j =
  match Json.to_float (field name j) with
  | Some f -> f
  | None -> Alcotest.failf "field %S is not a number" name

let test_parse_request () =
  (match Serve.parse_request (Json.Obj [ ("op", Json.Str "stats") ]) with
  | Ok Serve.Stats -> ()
  | _ -> Alcotest.fail "stats must parse");
  (match Serve.parse_request (Json.Obj [ ("op", Json.Str "shutdown") ]) with
  | Ok Serve.Shutdown -> ()
  | _ -> Alcotest.fail "shutdown must parse");
  (match Serve.parse_request (Json.Obj [ ("op", Json.Str "compile") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "compile without app/src must be rejected");
  (match Serve.parse_request (Json.Obj [ ("op", Json.Str "frobnicate") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown op must be rejected");
  (match Serve.parse_request (Json.Obj []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing op must be rejected");
  (* frames/procs must be integral numbers >= 1 that an int holds *)
  let run_with field v =
    Serve.parse_request
      (Json.Obj
         [ ("op", Json.Str "run"); ("app", Json.Str "a"); ("src", Json.Str "s");
           (field, v) ])
  in
  List.iter
    (fun (field, v) ->
      match run_with field v with
      | Error _ -> ()
      | Ok _ ->
          Alcotest.failf "%s = %s must be rejected" field (Json.to_string v))
    [
      ("frames", Json.Num 2.5); ("frames", Json.Num 1e300);
      ("frames", Json.Num Float.infinity); ("frames", Json.Num Float.nan);
      ("frames", Json.Num 0.0); ("frames", Json.Num (-3.0));
      (* 2^62, one past max_int *)
      ("frames", Json.Num 4611686018427387904.0); ("frames", Json.Str "3");
      ("frames", Json.Null); ("procs", Json.Num 0.5); ("procs", Json.Num 0.0);
      ("procs", Json.Str "8");
    ];
  (match
     Serve.parse_request
       (Json.Obj
          [ ("op", Json.Str "compile"); ("app", Json.Str "a");
            ("src", Json.Str "s"); ("frames", Json.Num 2.5) ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "compile with frames = 2.5 must be rejected");
  (match (run_with "frames" (Json.Num 3.0), run_with "procs" (Json.Fixed (0, 8.0))) with
  | ( Ok (Serve.Run { frames = 3; procs = 4; _ }),
      Ok (Serve.Run { frames = 1; procs = 8; _ }) ) -> ()
  | _ -> Alcotest.fail "integral frames/procs must parse, absent ones default");
  (* the caps: at the cap parses, one past it is rejected, on both ops; a
     compile has no [procs] and ignores the field *)
  let compile_with field v =
    Serve.parse_request
      (Json.Obj
         [ ("op", Json.Str "compile"); ("app", Json.Str "a"); ("src", Json.Str "s");
           (field, v) ])
  in
  let frames_cap = Serve.max_frames in
  let frames_past = Json.int (frames_cap + 1) in
  (match
     ( compile_with "frames" (Json.int frames_cap),
       run_with "frames" (Json.int frames_cap),
       run_with "procs" (Json.int Serve.max_procs),
       compile_with "procs" (Json.int (Serve.max_procs + 1)) )
   with
  | ( Ok (Serve.Compile { frames = f1; _ }),
      Ok (Serve.Run { frames = f2; _ }),
      Ok (Serve.Run { procs; _ }),
      Ok (Serve.Compile _) )
    when f1 = frames_cap && f2 = frames_cap && procs = Serve.max_procs -> ()
  | _ -> Alcotest.fail "frames and procs at their caps must parse");
  List.iter
    (fun (what, r) ->
      match r with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s past its cap must be rejected" what)
    [
      ("compile frames", compile_with "frames" frames_past);
      ("run frames", run_with "frames" frames_past);
      ("run procs", run_with "procs" (Json.int (Serve.max_procs + 1)));
    ];
  Alcotest.(check int) "procs cap" 1024 Serve.max_procs;
  Alcotest.(check int) "frames cap" 1000 Serve.max_frames;
  match
    Serve.parse_request
      (Serve.req_run ~frames:3 ~optimize:true ~procs:8 ~app:"a" "src")
  with
  | Ok (Serve.Run { app = "a"; src = "src"; frames = 3; optimize = true;
                    procs = 8; strategy = "canonical" }) -> ()
  | _ -> Alcotest.fail "builder output must parse back"

(* A capturing logger with a pinned clock: lines land in a shared list
   (the logger's own mutex serialises the sink), readable after the server
   domain is joined. *)
let capture_log () =
  let lines = ref [] in
  let log =
    Support.Log.create ~level:Support.Log.Debug
      ~clock:(fun () -> 0.0)
      (fun l -> lines := l :: !lines)
  in
  (log, fun () -> List.rev !lines)

(* Requests as a client may send them: the known fields with values of
   any type (huge, negative and non-finite numbers included), unknown
   fields, duplicates, and non-object values. *)
let gen_request =
  QCheck.Gen.(
    let num =
      oneofl
        [ 1e300; -1e300; -1.0; 0.0; 0.5; 3.0; 1e18; Float.nan; Float.infinity;
          Float.neg_infinity; -0.0; 4.9e-324 ]
    in
    let leaf =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun f -> Json.Num f) num;
          map2 (fun d f -> Json.Fixed (d, f)) (int_bound 6) num;
          map (fun n -> Json.int n) int;
          map (fun s -> Json.Str s)
            (oneof
               [
                 oneofl [ "compile"; "run"; "stats"; "metrics"; "shutdown"; ""; "heft" ];
                 string_size ~gen:printable (int_bound 8);
               ]);
        ]
    in
    let value =
      frequency
        [
          (4, leaf);
          (1, map (fun xs -> Json.Arr xs) (list_size (int_bound 3) leaf));
          (1, map (fun kvs -> Json.Obj kvs) (list_size (int_bound 3) (pair (return "op") leaf)));
        ]
    in
    let key =
      oneofl [ "op"; "app"; "src"; "frames"; "procs"; "optimize"; "strategy"; "x" ]
    in
    frequency
      [
        (6, map (fun kvs -> Json.Obj kvs) (list_size (int_bound 8) (pair key value)));
        (1, value);
      ])

let prop_parse_request_total =
  QCheck.Test.make ~name:"parse_request answers Ok or Error on any value" ~count:2000
    (QCheck.make ~print:Json.to_string gen_request)
    (fun j ->
      match Serve.parse_request j with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let test_serve_end_to_end () =
  let socket = tmp_name "skipper-test-serve.sock" in
  let store_dir = tmp_name "skipper-test-serve-store" in
  let open_store () =
    Support.Store.open_store ~dir:store_dir ~stamp:Passes.artifact_format ()
  in
  (* an earlier process compiled the program for one frame: the daemon's
     first batch reads parse and typecheck from the store whatever order
     its requests run in, and runs (and writes) the stages that read the
     frame count *)
  ignore
    (Skipper_lib.Pipeline.compile_source ~frames:1
       ~cache:(Passes.create_cache ~store:(open_store ()) ())
       ~table:(simple_table ()) simple_src);
  let store = open_store () in
  let log, log_lines = capture_log () in
  let cfg =
    {
      Serve.table_of = (fun _ -> simple_table ());
      input_of = (fun _ -> Some (V.List [ V.Int 1; V.Int 2; V.Int 3 ]));
      arch_of = Archi.ring;
      store = Some store;
      jobs = 2;
      log;
      metrics = None;
      timeline = None;
    }
  in
  let daemon = Domain.spawn (fun () -> Serve.serve cfg ~socket ()) in
  let call reqs =
    match Serve.call ~socket reqs with
    | Ok rs -> rs
    | Error m -> Alcotest.failf "client call failed: %s" m
  in
  (* first client: compile and run the same program in one batch *)
  let compile1, run1 =
    match
      call
        [
          Serve.req_compile ~frames:2 ~app:"simple" simple_src;
          Serve.req_run ~frames:2 ~procs:4 ~app:"simple" simple_src;
        ]
    with
    | [ a; b ] -> (a, b)
    | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs)
  in
  Alcotest.(check string) "compile ok" "ok" (str "status" compile1);
  Alcotest.(check string) "run ok" "ok" (str "status" run1);
  Alcotest.(check string) "run evaluated the program" "14" (str "value" run1);
  let digest1 = str "graph_digest" compile1 in
  Alcotest.(check string) "compile and run agree on the artifact" digest1
    (str "graph_digest" run1);
  (* second client, fresh connection: identical artifact, and the compile
     is fully warm from the daemon's memory, which every request shares:
     no store file is read *)
  let compile2 =
    match call [ Serve.req_compile ~frames:2 ~app:"simple" simple_src ] with
    | [ r ] -> r
    | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)
  in
  Alcotest.(check string) "identical artifact across clients" digest1
    (str "graph_digest" compile2);
  let cache2 = field "cache" compile2 in
  Alcotest.(check int) "warm compile misses nothing" 0
    (int_of_float (numf "misses" cache2));
  Alcotest.(check int) "warm compile hits every front-end stage" 5
    (int_of_float (numf "hits" cache2));
  Alcotest.(check int) "every hit came from the daemon's memory" 0
    (int_of_float (numf "store_hits" cache2));
  (* a bad request errors without killing its batch: the compile riding in
     the same batch still succeeds *)
  (match
     call
       [
         Json.Obj [ ("op", Json.Str "frobnicate") ];
         Serve.req_compile ~frames:2 ~app:"simple" simple_src;
       ]
   with
  | [ bad; good ] ->
      Alcotest.(check string) "unknown op rejected" "error" (str "status" bad);
      Alcotest.(check string) "batch survives the error" "ok"
        (str "status" good)
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
  (* error accounting is tallied once a batch completes, so a later stats
     request observes it *)
  (match call [ Serve.req_stats ] with
  | [ stats ] ->
      Alcotest.(check string) "stats ok" "ok" (str "status" stats);
      Alcotest.(check bool) "stats counted the error" true
        (numf "errors" stats >= 1.0);
      Alcotest.(check bool) "store counters exposed" true
        (numf "hits" (field "store" stats) > 0.0)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  (* the deepened stats response carries the whole registry snapshot *)
  (match call [ Serve.req_stats ] with
  | [ stats ] ->
      Alcotest.(check bool) "uptime exposed" true (numf "uptime_s" stats >= 0.0);
      Alcotest.(check (float 0.0)) "no aborted frames in a clean run" 0.0
        (numf "aborted_frames" stats);
      let st = field "store" stats in
      Alcotest.(check bool) "store bytes surfaced" true
        (numf "bytes_written" st > 0.0);
      Alcotest.(check (float 0.0)) "store misses decompose" (numf "misses" st)
        (numf "absent" st +. numf "corrupt" st +. numf "stamp_mismatch" st);
      let mem = field "memory" stats in
      Alcotest.(check (float 0.0)) "memory holds one front-end chain" 5.0
        (numf "entries" mem);
      Alcotest.(check bool) "memory within its budget" true
        (numf "words" mem > 0.0 && numf "words" mem <= numf "budget_words" mem);
      let metrics = field "metrics" stats in
      (match Json.member "histograms" metrics with
      | Some (Json.Arr (_ :: _)) -> ()
      | _ -> Alcotest.fail "stats must embed registry histograms")
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  (* shutdown, then the server domain returns its request count *)
  (match call [ Serve.req_shutdown ] with
  | [ r ] -> Alcotest.(check string) "shutdown ok" "ok" (str "status" r)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  let served = Domain.join daemon in
  Alcotest.(check int) "every request counted" 8 served;
  (* the captured log is parseable JSONL with monotonic seqs and
     per-request ids on every "request" record *)
  let lines = log_lines () in
  Alcotest.(check bool) "log captured lines" true (List.length lines > 0);
  List.iteri
    (fun i line ->
      match Json.parse line with
      | Error m -> Alcotest.failf "log line %d is not JSON (%s): %s" i m line
      | Ok j ->
          Alcotest.(check (float 0.0))
            "log seq matches line position" (float_of_int i) (numf "seq" j);
          if str "event" j = "request" then
            Alcotest.(check bool) "request record has an id" true
              (String.length (str "req" j) > 0))
    lines;
  let request_lines =
    List.filter
      (fun l ->
        match Json.parse l with
        | Ok j -> (match Json.member "event" j with
            | Some (Json.Str "request") -> true
            | _ -> false)
        | Error _ -> false)
      lines
  in
  Alcotest.(check int) "one log record per request" served
    (List.length request_lines);
  (* a second daemon over the same store directory (a new process, say)
     starts with an empty memory: its first compile is warm from the store *)
  let socket2 = tmp_name "skipper-test-serve-second.sock" in
  let daemon2 =
    Domain.spawn (fun () ->
        Serve.serve
          { cfg with Serve.store = Some (open_store ()); log = Support.Log.null }
          ~socket:socket2 ())
  in
  let first =
    match
      Serve.call ~socket:socket2
        [ Serve.req_compile ~frames:2 ~app:"simple" simple_src ]
    with
    | Ok [ r ] -> r
    | Ok rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)
    | Error m -> Alcotest.failf "second daemon call failed: %s" m
  in
  Alcotest.(check string) "second daemon builds the same artifact" digest1
    (str "graph_digest" first);
  let cache = field "cache" first in
  Alcotest.(check int) "second daemon's first compile misses nothing" 0
    (int_of_float (numf "misses" cache));
  Alcotest.(check (float 0.0)) "every hit came from the store"
    (numf "hits" cache) (numf "store_hits" cache);
  (match Serve.call ~socket:socket2 [ Serve.req_shutdown ] with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "second daemon shutdown failed: %s" m);
  ignore (Domain.join daemon2)

(* Regression for the one-client-at-a-time accept loop: a connected but
   idle client must not block other clients. Client A connects first and
   sends nothing; client B then completes a full round-trip; finally A
   speaks on its original connection and is still served. Under the old
   sequential loop this test hangs at B's call. *)
let test_concurrent_clients () =
  let socket = tmp_name "skipper-test-serve-conc.sock" in
  let cfg =
    {
      Serve.table_of = (fun _ -> simple_table ());
      input_of = (fun _ -> None);
      arch_of = Archi.ring;
      store = None;
      jobs = 1;
      log = Support.Log.null;
      metrics = None;
      timeline = None;
    }
  in
  let daemon = Domain.spawn (fun () -> Serve.serve cfg ~socket ()) in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let rec retry n =
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> ()
      | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when n > 0 ->
          Unix.sleepf 0.05;
          retry (n - 1)
    in
    retry 100;
    fd
  in
  let send_frame fd j =
    let body = Bytes.of_string (Json.to_string j) in
    let hdr = Bytes.create 4 in
    Bytes.set_int32_be hdr 0 (Int32.of_int (Bytes.length body));
    ignore (Unix.write fd hdr 0 4);
    ignore (Unix.write fd body 0 (Bytes.length body))
  in
  let read_exact fd n =
    let b = Bytes.create n in
    let rec go off =
      if off < n then begin
        let k = Unix.read fd b off (n - off) in
        if k = 0 then Alcotest.fail "server closed the connection early";
        go (off + k)
      end
    in
    go 0;
    b
  in
  let read_frame fd =
    let len = Int32.to_int (Bytes.get_int32_be (read_exact fd 4) 0) in
    match Json.parse (Bytes.to_string (read_exact fd len)) with
    | Ok j -> j
    | Error m -> Alcotest.failf "bad response frame: %s" m
  in
  (* A connects and goes idle *)
  let a = connect () in
  (* B connects later and must be served while A still holds its
     connection open *)
  (match Serve.call ~socket [ Serve.req_stats ] with
  | Ok [ r ] ->
      Alcotest.(check string) "B served while A idles" "ok" (str "status" r)
  | Ok rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)
  | Error m -> Alcotest.failf "client B failed: %s" m);
  (* A finally speaks — its original connection still works *)
  send_frame a (Json.Obj [ ("requests", Json.Arr [ Serve.req_stats ]) ]);
  (match Json.member "responses" (read_frame a) with
  | Some (Json.Arr [ r ]) ->
      Alcotest.(check string) "A served after B" "ok" (str "status" r)
  | _ -> Alcotest.fail "A's batch got no response list");
  Unix.close a;
  (match Serve.call ~socket [ Serve.req_shutdown ] with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "shutdown failed: %s" m);
  let served = Domain.join daemon in
  Alcotest.(check int) "all three batches counted" 3 served

(* Regression: a client vanishing mid-frame — after a partial length
   prefix, or after a length prefix promising more payload than it sends —
   must be logged and counted as an aborted frame, and must never take the
   serve loop down. Under the old exception-only read path these close as
   anonymous End_of_file drops; worse, a blocking read could wedge. *)
let test_aborted_frames () =
  let socket = tmp_name "skipper-test-serve-abort.sock" in
  let log, log_lines = capture_log () in
  let cfg =
    {
      Serve.table_of = (fun _ -> simple_table ());
      input_of = (fun _ -> None);
      arch_of = Archi.ring;
      store = None;
      jobs = 1;
      log;
      metrics = None;
      timeline = None;
    }
  in
  let daemon = Domain.spawn (fun () -> Serve.serve cfg ~socket ()) in
  let call reqs =
    match Serve.call ~socket reqs with
    | Ok rs -> rs
    | Error m -> Alcotest.failf "client call failed: %s" m
  in
  (* wait for the daemon before writing raw garbage at it *)
  (match call [ Serve.req_stats ] with
  | [ r ] -> Alcotest.(check string) "daemon up" "ok" (str "status" r)
  | _ -> Alcotest.fail "stats before the aborts failed");
  let raw_connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    fd
  in
  (* abort 1: two bytes of the four-byte length prefix, then gone *)
  let a = raw_connect () in
  ignore (Unix.write a (Bytes.make 2 '\001') 0 2);
  Unix.close a;
  (* abort 2: a header promising 64 bytes, then only 10 of them *)
  let b = raw_connect () in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 64l;
  ignore (Unix.write b hdr 0 4);
  ignore (Unix.write b (Bytes.make 10 'x') 0 10);
  Unix.close b;
  (* the daemon keeps serving; poll stats until both aborts are counted *)
  let rec poll n =
    match call [ Serve.req_stats ] with
    | [ stats ] when numf "aborted_frames" stats >= 2.0 -> stats
    | [ _ ] when n > 0 ->
        Unix.sleepf 0.05;
        poll (n - 1)
    | [ stats ] ->
        Alcotest.failf "aborted frames never counted: %s" (Json.to_string stats)
    | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)
  in
  let stats = poll 100 in
  Alcotest.(check (float 0.0)) "both aborts counted" 2.0
    (numf "aborted_frames" stats);
  (* still compiling after the aborts *)
  (match call [ Serve.req_compile ~frames:2 ~app:"simple" simple_src ] with
  | [ r ] -> Alcotest.(check string) "daemon survives aborts" "ok" (str "status" r)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  ignore (call [ Serve.req_shutdown ]);
  ignore (Domain.join daemon);
  let aborted_logged =
    List.filter
      (fun l ->
        match Json.parse l with
        | Ok j -> (match Json.member "event" j with
            | Some (Json.Str "aborted_frame") -> true
            | _ -> false)
        | Error _ -> false)
      (log_lines ())
  in
  Alcotest.(check int) "both aborts logged" 2 (List.length aborted_logged)

(* Regression: a client that sends a complete run request and hangs up
   before the reply used to kill the daemon with SIGPIPE. Now the failed
   write is an io_error drop and the daemon goes on serving. *)
let test_early_close () =
  let socket = tmp_name "skipper-test-serve-early.sock" in
  let log, log_lines = capture_log () in
  let cfg =
    {
      Serve.table_of = (fun _ -> simple_table ());
      input_of = (fun _ -> None);
      arch_of = Archi.ring;
      store = None;
      jobs = 1;
      log;
      metrics = None;
      timeline = None;
    }
  in
  let daemon = Domain.spawn (fun () -> Serve.serve cfg ~socket ()) in
  let call reqs =
    match Serve.call ~socket reqs with
    | Ok rs -> rs
    | Error m -> Alcotest.failf "client call failed: %s" m
  in
  ignore (call [ Serve.req_stats ]);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  (* Shutting the receiving side first makes the reply's write fail
     whether or not the close below has happened by then. *)
  Unix.shutdown fd Unix.SHUTDOWN_RECEIVE;
  let body =
    Json.to_string
      (Json.Obj
         [
           ( "requests",
             Json.Arr [ Serve.req_run ~frames:2 ~procs:4 ~app:"simple" simple_src ] );
         ])
  in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (String.length body));
  let frame = Bytes.cat hdr (Bytes.of_string body) in
  ignore (Unix.write fd frame 0 (Bytes.length frame));
  Unix.close fd;
  let io_error_drops () =
    List.length
      (List.filter
         (fun l ->
           match Json.parse l with
           | Ok j ->
               Json.member "event" j = Some (Json.Str "client_disconnected")
               && Json.member "reason" j = Some (Json.Str "io_error")
           | Error _ -> false)
         (log_lines ()))
  in
  (* a second client is served while the daemon notices the hang-up *)
  let rec poll calls =
    match call [ Serve.req_stats ] with
    | [ r ] ->
        Alcotest.(check string) "stats after the hang-up" "ok" (str "status" r);
        if io_error_drops () = 0 && calls < 100 then begin
          Unix.sleepf 0.05;
          poll (calls + 1)
        end
        else calls + 1
    | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)
  in
  let stats_calls = poll 0 in
  Alcotest.(check int) "the hang-up is counted as an io_error drop" 1
    (io_error_drops ());
  ignore (call [ Serve.req_shutdown ]);
  (* the run was served (and counted) before its reply failed: the first
     stats, the run, every polling stats and the shutdown *)
  Alcotest.(check int) "requests served" (stats_calls + 3) (Domain.join daemon)

(* The metrics op: a Prometheus exposition whose per-op request histogram
   counts exactly the requests served, plus the skipperc-top rendering of
   the stats snapshot. *)
(* A peer that accepts and hangs up — after reading the whole request, or
   at once — must come back from [call] as an [Error]: the client never
   dies of [End_of_file] or SIGPIPE because the daemon went away. So must
   a socket nobody listens on. *)
let test_hangup_is_an_error () =
  let read_n fd n =
    let buf = Bytes.create n in
    let rec go off =
      if off < n then
        match Unix.read fd buf off (n - off) with 0 -> () | k -> go (off + k)
    in
    go 0;
    buf
  in
  List.iter
    (fun read_request ->
      let socket = tmp_name "skipper-test-serve-hangup.sock" in
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind listener (Unix.ADDR_UNIX socket);
      Unix.listen listener 1;
      let peer =
        Domain.spawn (fun () ->
            let fd, _ = Unix.accept listener in
            if read_request then
              ignore
                (read_n fd
                   (Int32.to_int (Bytes.get_int32_be (read_n fd 4) 0)));
            Unix.close fd)
      in
      let outcome = Serve.call ~retries:0 ~socket [ Serve.req_stats ] in
      Domain.join peer;
      Unix.close listener;
      Unix.unlink socket;
      match outcome with
      | Error m ->
          Alcotest.(check bool) "the error says something" true (m <> "")
      | Ok _ -> Alcotest.fail "a hang-up must not produce responses")
    [ true; false ];
  match
    Serve.call ~retries:0
      ~socket:(tmp_name "skipper-test-serve-nobody.sock")
      [ Serve.req_stats ]
  with
  | Error m ->
      Alcotest.(check bool) "names the failed connect" true
        (Astring.String.is_infix ~affix:"cannot connect" m)
  | Ok _ -> Alcotest.fail "no listener must not produce responses"

let test_metrics_op () =
  let socket = tmp_name "skipper-test-serve-metrics.sock" in
  let cfg =
    {
      Serve.table_of = (fun _ -> simple_table ());
      input_of = (fun _ -> None);
      arch_of = Archi.ring;
      store = None;
      jobs = 2;
      log = Support.Log.null;
      metrics = None;
      timeline = None;
    }
  in
  let daemon = Domain.spawn (fun () -> Serve.serve cfg ~socket ()) in
  let call reqs =
    match Serve.call ~socket reqs with
    | Ok rs -> rs
    | Error m -> Alcotest.failf "client call failed: %s" m
  in
  let compiles = 3 in
  let rs =
    call
      (List.init compiles (fun _ ->
           Serve.req_compile ~frames:2 ~app:"simple" simple_src))
  in
  List.iter
    (fun r -> Alcotest.(check string) "compile ok" "ok" (str "status" r))
    rs;
  let exposition =
    match call [ Serve.req_metrics ] with
    | [ r ] ->
        Alcotest.(check string) "metrics ok" "ok" (str "status" r);
        str "exposition" r
    | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "histogram count equals compile requests" true
    (contains exposition
       (Printf.sprintf "skipper_serve_request_seconds_count{op=\"compile\"} %d"
          compiles));
  Alcotest.(check bool) "request counter exposed" true
    (contains exposition "skipper_serve_requests_total 4\n");
  Alcotest.(check bool) "type lines present" true
    (contains exposition "# TYPE skipper_serve_request_seconds histogram");
  Alcotest.(check bool) "memory entries exposed" true
    (contains exposition "skipper_serve_memory_entries 5.000000000\n");
  Alcotest.(check bool) "memory evictions exposed" true
    (contains exposition "skipper_serve_memory_evictions_total 0\n");
  (* one-screen top rendering from the stats snapshot *)
  (match call [ Serve.req_stats ] with
  | [ stats ] ->
      let top = Serve.render_top stats in
      Alcotest.(check bool) "top shows requests" true
        (contains top "requests 5");
      Alcotest.(check bool) "top shows the compile op row" true
        (contains top "compile");
      Alcotest.(check bool) "top shows the cache line" true
        (contains top "hit ratio")
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  (match Serve.call ~socket [ Serve.req_shutdown ] with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "shutdown failed: %s" m);
  ignore (Domain.join daemon)

(* Regression: a signal handler anywhere in the process must not break
   requests. A 0.5 ms SIGALRM interval timer runs through a burst of
   compile calls, so reads and writes on both ends, and the daemon's
   select and accept, are interrupted ([EINTR]) again and again. Every
   call must succeed, and the daemon must still answer [stats] after the
   burst, with every request counted. *)
let test_signals_during_requests () =
  let socket = tmp_name "skipper-test-serve-eintr.sock" in
  let cfg =
    {
      Serve.table_of = (fun _ -> simple_table ());
      input_of = (fun _ -> None);
      arch_of = Archi.ring;
      store = None;
      jobs = 1;
      log = Support.Log.null;
      metrics = None;
      timeline = None;
    }
  in
  let daemon = Domain.spawn (fun () -> Serve.serve cfg ~socket ()) in
  let ticks = Atomic.make 0 in
  let every = 0.0005 and burst = 60 in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> Atomic.incr ticks)) in
  let timer interval = { Unix.it_interval = interval; it_value = interval } in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.0));
      Sys.set_signal Sys.sigalrm previous)
    (fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL (timer every));
      for i = 1 to burst do
        (* a different worker count each time, so some compiles are cold *)
        let src =
          Printf.sprintf
            "external sq : int -> int\nexternal plus : int -> int -> int\n\
             let main = fun xs -> df %d sq plus 0 xs"
            (1 + (i mod 7))
        in
        match Serve.call ~socket [ Serve.req_compile ~app:"simple" src ] with
        | Ok [ r ] -> Alcotest.(check string) "compile ok" "ok" (str "status" r)
        | Ok rs -> Alcotest.failf "call %d: expected 1 response, got %d" i (List.length rs)
        | Error m -> Alcotest.failf "call %d failed under the timer: %s" i m
      done;
      match Serve.call ~socket [ Serve.req_stats ] with
      | Ok [ r ] ->
          Alcotest.(check string) "stats ok" "ok" (str "status" r);
          Alcotest.(check int) "every request counted" (burst + 1)
            (int_of_float (numf "requests" r))
      | Ok rs -> Alcotest.failf "stats: expected 1 response, got %d" (List.length rs)
      | Error m -> Alcotest.failf "stats failed under the timer: %s" m);
  Alcotest.(check bool) "the timer fired" true (Atomic.get ticks > 0);
  (match Serve.call ~socket [ Serve.req_shutdown ] with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "shutdown failed: %s" m);
  Alcotest.(check int) "all batches served" (burst + 2) (Domain.join daemon)

(* Determinism across pool widths: the same request sequence against a
   --jobs 1 and a --jobs 4 daemon yields byte-identical responses once the
   wall-clock fields are stripped, and (under a pinned log clock)
   structurally identical logs — dispatcher-side accounting in submit
   order is what makes this hold. *)
let test_jobs_determinism () =
  let strip_volatile j =
    let rec go = function
      | Json.Obj kvs ->
          Json.Obj
            (List.filter_map
               (fun (k, v) ->
                 if k = "wall_ms" || k = "uptime_s" then None
                 else Some (k, go v))
               kvs)
      | Json.Arr l -> Json.Arr (List.map go l)
      | j -> j
    in
    go j
  in
  let run_with jobs =
    let socket = tmp_name (Printf.sprintf "skipper-test-serve-det%d.sock" jobs) in
    let log, log_lines = capture_log () in
    let cfg =
      {
        Serve.table_of = (fun _ -> simple_table ());
        input_of = (fun _ -> Some (V.List [ V.Int 1; V.Int 2; V.Int 3 ]));
        arch_of = Archi.ring;
        store = None;
        jobs;
        log;
        metrics = None;
        timeline = None;
      }
    in
    let daemon = Domain.spawn (fun () -> Serve.serve cfg ~socket ()) in
    let rs =
      match
        Serve.call ~socket
          [
            Serve.req_compile ~frames:2 ~app:"simple" simple_src;
            Serve.req_run ~frames:2 ~procs:4 ~app:"simple" simple_src;
            Serve.req_compile ~frames:3 ~app:"simple" simple_src;
            Json.Obj [ ("op", Json.Str "frobnicate") ];
          ]
      with
      | Ok rs -> rs
      | Error m -> Alcotest.failf "jobs=%d call failed: %s" jobs m
    in
    (match Serve.call ~socket [ Serve.req_shutdown ] with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "jobs=%d shutdown failed: %s" jobs m);
    ignore (Domain.join daemon);
    let responses =
      List.map (fun r -> Json.to_string (strip_volatile r)) rs
    in
    let log_skeleton =
      (* event/req/op/status per line; byte counts and wall times vary *)
      List.filter_map
        (fun l ->
          match Json.parse l with
          | Error _ -> None
          | Ok j ->
              let f k =
                match Json.member k j with
                | Some (Json.Str s) -> s
                | _ -> ""
              in
              Some (Printf.sprintf "%s/%s/%s/%s" (f "event") (f "req")
                      (f "op") (f "status")))
        (log_lines ())
    in
    (responses, log_skeleton)
  in
  let r1, l1 = run_with 1 in
  let r4, l4 = run_with 4 in
  Alcotest.(check (list string))
    "responses byte-identical across jobs (wall-clock stripped)" r1 r4;
  Alcotest.(check (list string)) "log skeleton identical across jobs" l1 l4

(* One memory serves every request of a --jobs 4 batch: identical compiles
   and runs racing on four domains answer exactly what a --jobs 1 daemon
   answers, and a second batch is warm from the memory alone. *)
let test_jobs_share_memory () =
  let answers jobs =
    let socket =
      tmp_name (Printf.sprintf "skipper-test-serve-mem%d.sock" jobs)
    in
    let cfg =
      {
        Serve.table_of = (fun _ -> simple_table ());
        input_of = (fun _ -> Some (V.List [ V.Int 1; V.Int 2; V.Int 3 ]));
        arch_of = Archi.ring;
        store = None;
        jobs;
        log = Support.Log.null;
        metrics = None;
        timeline = None;
      }
    in
    let daemon = Domain.spawn (fun () -> Serve.serve cfg ~socket ()) in
    let batch =
      List.init 8 (fun i ->
          if i mod 2 = 0 then Serve.req_compile ~frames:2 ~app:"simple" simple_src
          else Serve.req_run ~frames:2 ~procs:4 ~app:"simple" simple_src)
    in
    let call () =
      match Serve.call ~socket batch with
      | Ok rs -> rs
      | Error m -> Alcotest.failf "jobs=%d call failed: %s" jobs m
    in
    let cold = call () in
    let warm = call () in
    (match Serve.call ~socket [ Serve.req_shutdown ] with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "jobs=%d shutdown failed: %s" jobs m);
    ignore (Domain.join daemon);
    List.iter
      (fun r ->
        let cache = field "cache" r in
        Alcotest.(check (pair int int))
          (Printf.sprintf "jobs=%d warm batch: 5 memory hits, no miss" jobs)
          (5, 0)
          (int_of_float (numf "hits" cache), int_of_float (numf "misses" cache)))
      warm;
    List.map
      (fun r ->
        let opt k =
          match Json.member k r with Some v -> Json.to_string v | None -> "-"
        in
        String.concat " "
          [ str "status" r; str "graph_digest" r; opt "value"; opt "messages" ])
      (cold @ warm)
  in
  Alcotest.(check (list string))
    "digests, values and message counts equal the --jobs 1 answers"
    (answers 1) (answers 4)

let () =
  Alcotest.run "serve"
    [
      ( "serve",
        [
          Alcotest.test_case "parse_request" `Quick test_parse_request;
          QCheck_alcotest.to_alcotest prop_parse_request_total;
          Alcotest.test_case "end to end" `Quick test_serve_end_to_end;
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients;
          Alcotest.test_case "aborted frames" `Quick test_aborted_frames;
          Alcotest.test_case "early close" `Quick test_early_close;
          Alcotest.test_case "hang-up is an error" `Quick
            test_hangup_is_an_error;
          Alcotest.test_case "metrics op and top" `Quick test_metrics_op;
          Alcotest.test_case "signals during requests" `Quick
            test_signals_during_requests;
          Alcotest.test_case "jobs determinism" `Quick test_jobs_determinism;
          Alcotest.test_case "jobs share one memory" `Quick
            test_jobs_share_memory;
        ] );
    ]
