(* Tests for the discrete-event MIMD-DM simulator: timing semantics of the
   kernel primitives, link contention, determinism, and failure handling. *)

module Sim = Machine.Sim
module Proc = Machine.Proc
module V = Skel.Value

(* A ring with easy numbers: 1 us cycles, 1 MB/s links, 1 ms startup. *)
let toy_arch n =
  Archi.ring ~cycle_time:1e-6 ~bandwidth:1e6 ~startup:1e-3 n

let test_compute_advances_time () =
  let sim = Sim.create (toy_arch 2) in
  let finished = ref 0.0 in
  let _ =
    Sim.spawn sim ~name:"p" ~on:0 (fun () ->
        Proc.compute 1000.0;
        finished := Proc.now ())
  in
  let _ = Sim.run sim in
  Alcotest.(check (float 1e-12)) "1000 cycles at 1us" 1e-3 !finished

let test_cpu_exclusive () =
  (* Two processes on one processor serialise their computations. *)
  let sim = Sim.create (toy_arch 1) in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  let _ = Sim.spawn sim ~name:"a" ~on:0 (fun () -> Proc.compute 1000.0; t1 := Proc.now ()) in
  let _ = Sim.spawn sim ~name:"b" ~on:0 (fun () -> Proc.compute 1000.0; t2 := Proc.now ()) in
  let _ = Sim.run sim in
  Alcotest.(check (float 1e-12)) "first done at 1ms" 1e-3 (Float.min !t1 !t2);
  Alcotest.(check (float 1e-12)) "second done at 2ms" 2e-3 (Float.max !t1 !t2)

let test_parallel_processors_overlap () =
  let sim = Sim.create (toy_arch 2) in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  let _ = Sim.spawn sim ~name:"a" ~on:0 (fun () -> Proc.compute 1000.0; t1 := Proc.now ()) in
  let _ = Sim.spawn sim ~name:"b" ~on:1 (fun () -> Proc.compute 1000.0; t2 := Proc.now ()) in
  let finish = Sim.run sim in
  Alcotest.(check (float 1e-12)) "both done at 1ms" 1e-3 finish;
  Alcotest.(check (float 1e-12)) "a" 1e-3 !t1;
  Alcotest.(check (float 1e-12)) "b" 1e-3 !t2

let test_message_latency_model () =
  (* 1000-byte message over one link: send overhead + startup + bytes/bw. *)
  let sim = Sim.create (toy_arch 2) in
  let arrival = ref 0.0 in
  let receiver =
    Sim.spawn sim ~name:"rx" ~on:1 (fun () ->
        let _ = Proc.recv "in" in
        arrival := Proc.now ())
  in
  let _ =
    Sim.spawn sim ~name:"tx" ~on:0 (fun () ->
        Proc.send receiver "in" (V.Str (String.make 996 'x')))
  in
  let _ = Sim.run sim in
  (* send overhead 200 cycles = 200us; transfer = 1ms startup + 1ms payload;
     receive overhead happens after arrival. *)
  let expected = (Archi.send_overhead_cycles *. 1e-6) +. 1e-3 +. 1e-3 in
  Alcotest.(check (float 1e-9)) "arrival time" expected !arrival

let test_store_and_forward () =
  (* Two hops double the link time. *)
  let sim = Sim.create (toy_arch 5) in
  let arrival = ref 0.0 in
  let receiver =
    Sim.spawn sim ~name:"rx" ~on:2 (fun () ->
        let _ = Proc.recv "in" in
        arrival := Proc.now ())
  in
  let _ =
    Sim.spawn sim ~name:"tx" ~on:0 (fun () ->
        Proc.send receiver "in" (V.Str (String.make 996 'x')))
  in
  let _ = Sim.run sim in
  let expected = (Archi.send_overhead_cycles *. 1e-6) +. (2.0 *. (1e-3 +. 1e-3)) in
  Alcotest.(check (float 1e-9)) "two hops" expected !arrival;
  Alcotest.(check int) "hops counted" 2 (Sim.stats sim).Sim.hops_total

let test_link_contention_serialises () =
  (* Two messages on the same link cannot overlap. *)
  let sim = Sim.create (toy_arch 2) in
  let arrivals = ref [] in
  let receiver =
    Sim.spawn sim ~name:"rx" ~on:1 (fun () ->
        for _ = 1 to 2 do
          let _ = Proc.recv "in" in
          arrivals := Proc.now () :: !arrivals
        done)
  in
  let _ =
    Sim.spawn sim ~name:"tx" ~on:0 (fun () ->
        Proc.send receiver "in" (V.Str (String.make 996 'x'));
        Proc.send receiver "in" (V.Str (String.make 996 'y')))
  in
  let _ = Sim.run sim in
  match List.rev !arrivals with
  | [ a1; a2 ] ->
      (* second transfer starts only after the first releases the link *)
      Alcotest.(check bool) "serialised" true (a2 -. a1 >= 2e-3 -. 1e-9)
  | _ -> Alcotest.fail "expected two arrivals"

let test_local_message_cheap () =
  let sim = Sim.create (toy_arch 2) in
  let arrival = ref 0.0 in
  let receiver =
    Sim.spawn sim ~name:"rx" ~on:0 (fun () ->
        let _ = Proc.recv "in" in
        arrival := Proc.now ())
  in
  let _ = Sim.spawn sim ~name:"tx" ~on:0 (fun () -> Proc.send receiver "in" (V.Int 1)) in
  let _ = Sim.run sim in
  Alcotest.(check bool) "local copy is far below link time" true (!arrival < 1e-3)

let test_fifo_per_port () =
  let sim = Sim.create (toy_arch 2) in
  let got = ref [] in
  let receiver =
    Sim.spawn sim ~name:"rx" ~on:1 (fun () ->
        for _ = 1 to 3 do
          got := V.to_int (Proc.recv "in") :: !got
        done)
  in
  let _ =
    Sim.spawn sim ~name:"tx" ~on:0 (fun () ->
        List.iter (fun i -> Proc.send receiver "in" (V.Int i)) [ 1; 2; 3 ])
  in
  let _ = Sim.run sim in
  Alcotest.(check (list int)) "in order" [ 1; 2; 3 ] (List.rev !got)

let test_recv_any () =
  let sim = Sim.create (toy_arch 5) in
  let first = ref "" in
  let receiver =
    Sim.spawn sim ~name:"rx" ~on:0 (fun () ->
        match Proc.recv_deadline [ "a"; "b" ] ~deadline:1.0 with
        | Some (port, _) -> first := port
        | None -> first := "none")
  in
  (* b is adjacent, a is two hops away, so b arrives first *)
  let _ = Sim.spawn sim ~name:"ta" ~on:2 (fun () -> Proc.send receiver "a" (V.Int 1)) in
  let _ = Sim.spawn sim ~name:"tb" ~on:1 (fun () -> Proc.send receiver "b" (V.Int 2)) in
  let _ = Sim.run sim in
  Alcotest.(check string) "earliest message wins" "b" !first

let test_sleep_until () =
  let sim = Sim.create (toy_arch 1) in
  let woke = ref 0.0 in
  let _ =
    Sim.spawn sim ~name:"s" ~on:0 (fun () ->
        Proc.sleep_until 0.5;
        woke := Proc.now ())
  in
  let _ = Sim.run sim in
  Alcotest.(check (float 1e-9)) "woke at 0.5" 0.5 !woke;
  (* sleeping is not busy time *)
  Alcotest.(check bool) "no busy time" true ((Sim.stats sim).Sim.busy.(0) < 1e-6)

(* [now] and [mark_stable] are answered within the segment that called
   them, and take no simulated time. *)
let test_answers_within_segment () =
  let sim = Sim.create (toy_arch 1) in
  let times = ref [] in
  let _ =
    Sim.spawn sim ~name:"clock" ~on:0 ~durable:true (fun () ->
        Proc.compute 1000.0;
        let t0 = Proc.now () in
        for _ = 1 to 1_000 do
          if Proc.now () <> t0 then failwith "the clock moved";
          Proc.mark_stable ()
        done;
        times := [ t0; Proc.now () ])
  in
  let finish = Sim.run sim in
  match !times with
  | [ t0; t1 ] ->
      Alcotest.(check bool) "after the compute" true (t0 > 0.0);
      Alcotest.(check (float 0.0)) "no simulated time taken" t0 t1;
      Alcotest.(check (float 0.0)) "run ends there" t0 finish
  | _ -> Alcotest.fail "body did not finish"

let test_blocked_process_terminates_run () =
  let sim = Sim.create (toy_arch 1) in
  let _ = Sim.spawn sim ~name:"waiter" ~on:0 (fun () -> ignore (Proc.recv "never")) in
  let finish = Sim.run sim in
  Alcotest.(check (float 0.0)) "drains immediately" 0.0 finish

let test_process_failure_wrapped () =
  let sim = Sim.create (toy_arch 1) in
  let _ = Sim.spawn sim ~name:"boom" ~on:0 (fun () -> failwith "kaboom") in
  Alcotest.(check bool) "wrapped" true
    (try ignore (Sim.run sim); false
     with Sim.Process_failure (name, Failure msg) -> name = "boom" && msg = "kaboom")

let test_primitives_outside_process () =
  let outside name f =
    Alcotest.check_raises (name ^ " outside") Proc.Not_in_process (fun () ->
        ignore (f ()))
  in
  outside "now" (fun () -> ignore (Proc.now ()));
  outside "compute" (fun () -> Proc.compute 10.0);
  outside "send" (fun () -> Proc.send 0 "p" (V.Int 1));
  outside "recv" (fun () -> ignore (Proc.recv "p"));
  outside "recv_deadline" (fun () ->
      ignore (Proc.recv_deadline [ "p" ] ~deadline:1.0));
  outside "sleep_until" (fun () -> Proc.sleep_until 1.0);
  outside "mark_stable" (fun () -> Proc.mark_stable ())

(* A process failure unwinds out of [run] mid-run, with other processes
   parked in their continuations; the domain must still run a fresh
   machine exactly as if the failed one never existed. *)
let test_failure_leaves_domain_clean () =
  let reference () =
    let sim = Sim.create (toy_arch 2) in
    let got = ref [] in
    let sink =
      Sim.spawn sim ~name:"sink" ~on:0 (fun () ->
          for _ = 1 to 3 do
            let v = Proc.recv "in" in
            got := (V.to_int v, Proc.now ()) :: !got
          done)
    in
    let _ =
      Sim.spawn sim ~name:"src" ~on:1 (fun () ->
          for i = 1 to 3 do
            Proc.compute 100.0;
            Proc.send sink "in" (V.Int i)
          done)
    in
    let finish = Sim.run sim in
    (finish, List.rev !got)
  in
  let before = reference () in
  let broken = Sim.create (toy_arch 2) in
  let waiter = Sim.spawn broken ~name:"waiter" ~on:0 (fun () -> ignore (Proc.recv "never")) in
  let _ =
    Sim.spawn broken ~name:"boom" ~on:1 (fun () ->
        Proc.compute 50.0;
        Proc.send waiter "other" (V.Int 0);
        ignore (Proc.now ());
        failwith "kaboom")
  in
  Alcotest.(check bool) "failure raised" true
    (try ignore (Sim.run broken); false with Sim.Process_failure ("boom", _) -> true);
  Alcotest.check_raises "primitives still outside a process" Proc.Not_in_process
    (fun () -> ignore (Proc.now ()));
  let after = reference () in
  Alcotest.(check (pair (float 0.0) (list (pair int (float 0.0)))))
    "fresh machine runs as before" before after

let test_spawn_validation () =
  let sim = Sim.create (toy_arch 2) in
  Alcotest.(check bool) "bad processor" true
    (try ignore (Sim.spawn sim ~name:"x" ~on:7 (fun () -> ())); false
     with Invalid_argument _ -> true)

let test_run_twice_rejected () =
  let sim = Sim.create (toy_arch 1) in
  let _ = Sim.run sim in
  Alcotest.(check bool) "second run fails" true
    (try ignore (Sim.run sim); false with Failure _ -> true)

let test_determinism () =
  let build () =
    let sim = Sim.create (toy_arch 4) in
    let outputs = ref [] in
    let collector =
      Sim.spawn sim ~name:"col" ~on:0 (fun () ->
          for _ = 1 to 6 do
            outputs := V.to_int (Proc.recv "r") :: !outputs
          done)
    in
    for i = 1 to 3 do
      let _ =
        Sim.spawn sim ~name:(Printf.sprintf "w%d" i) ~on:(i mod 4) (fun () ->
            Proc.compute (float_of_int (i * 100));
            Proc.send collector "r" (V.Int i);
            Proc.compute 50.0;
            Proc.send collector "r" (V.Int (10 * i)))
      in
      ()
    done;
    let finish = Sim.run sim in
    (finish, List.rev !outputs)
  in
  let f1, o1 = build () and f2, o2 = build () in
  Alcotest.(check (float 0.0)) "same finish" f1 f2;
  Alcotest.(check (list int)) "same order" o1 o2

let test_stats_and_utilisation () =
  let sim = Sim.create (toy_arch 2) in
  let r = Sim.spawn sim ~name:"rx" ~on:1 (fun () -> ignore (Proc.recv "in")) in
  let _ =
    Sim.spawn sim ~name:"tx" ~on:0 (fun () ->
        Proc.compute 100.0;
        Proc.send r "in" (V.Int 5))
  in
  let _ = Sim.run sim in
  let st = Sim.stats sim in
  Alcotest.(check int) "one message" 1 st.Sim.messages;
  Alcotest.(check int) "bytes" 4 st.Sim.bytes;
  Alcotest.(check bool) "utilisation in (0,1]" true
    (Sim.utilisation sim > 0.0 && Sim.utilisation sim <= 1.0)

let test_trace_and_gantt () =
  let sim = Sim.create ~trace:true (toy_arch 1) in
  let _ = Sim.spawn sim ~name:"p" ~on:0 (fun () -> Proc.compute 500.0) in
  let _ = Sim.run sim in
  let module E = Skipper_trace.Event in
  let events = E.events (Sim.timeline sim) in
  Alcotest.(check bool) "has compute event" true
    (List.exists
       (fun (e : E.t) ->
         match e.E.kind with E.Span _ -> e.E.cat = "compute" | _ -> false)
       events);
  Alcotest.(check bool) "has done event" true
    (List.exists
       (fun (e : E.t) ->
         e.E.cat = "proc" && e.E.name = "done" && e.E.kind = E.Instant)
       events);
  match Skipper_trace.Svg.gantt (Sim.timeline sim) with
  | Ok svg ->
      Alcotest.(check bool) "gantt has the processor row" true
        (Astring.String.is_infix ~affix:"P0" svg)
  | Error msg -> Alcotest.fail msg

let prop_compute_time_additive =
  QCheck.Test.make ~name:"sequential computes add up" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 10) (int_range 1 1000))
    (fun cycles ->
      let sim = Sim.create (toy_arch 1) in
      let _ =
        Sim.spawn sim ~name:"p" ~on:0 (fun () ->
            List.iter (fun c -> Proc.compute (float_of_int c)) cycles)
      in
      let finish = Sim.run sim in
      let expected = float_of_int (List.fold_left ( + ) 0 cycles) *. 1e-6 in
      abs_float (finish -. expected) < 1e-9)


let test_accounts_per_process () =
  let sim = Sim.create (toy_arch 2) in
  let r = Sim.spawn sim ~name:"rx" ~on:1 (fun () -> ignore (Proc.recv "in")) in
  let _ =
    Sim.spawn sim ~name:"tx" ~on:0 (fun () ->
        Proc.compute 1000.0;
        Proc.send r "in" (V.Int 1))
  in
  let _ = Sim.run sim in
  match Sim.accounts sim with
  | [
   { Sim.aname = "rx"; on = 1; busy_s = rx_busy; sends = rx_sends; _ };
   { Sim.aname = "tx"; on = 0; busy_s = tx_busy; sends = tx_sends; _ };
  ] ->
      Alcotest.(check int) "rx sent nothing" 0 rx_sends;
      Alcotest.(check int) "tx sent one" 1 tx_sends;
      Alcotest.(check bool) "tx busier than rx" true (tx_busy > rx_busy);
      (* tx busy = 1000 compute + 200 send overhead cycles at 1us *)
      Alcotest.(check (float 1e-9)) "tx busy" 1.2e-3 tx_busy
  | other -> Alcotest.failf "unexpected accounts (%d entries)" (List.length other)

let test_metrics_report () =
  let sim = Sim.create (toy_arch 2) in
  let r = Sim.spawn sim ~name:"rx" ~on:1 (fun () -> ignore (Proc.recv "in")) in
  let _ =
    Sim.spawn sim ~name:"tx" ~on:0 (fun () ->
        Proc.compute 5000.0;
        Proc.send r "in" (V.Int 1))
  in
  let _ = Sim.run sim in
  let report = Machine.Metrics.analyse sim in
  Alcotest.(check int) "messages" 1 report.Machine.Metrics.messages;
  Alcotest.(check bool) "finish positive" true (report.Machine.Metrics.finish_time > 0.0);
  (match report.Machine.Metrics.hottest_process with
  | Some (name, _) -> Alcotest.(check string) "hottest" "tx" name
  | None -> Alcotest.fail "expected a hottest process");
  Alcotest.(check bool) "imbalance >= 1" true (Machine.Metrics.imbalance report >= 1.0);
  let text = Machine.Metrics.to_string report in
  Alcotest.(check bool) "has bars" true (Astring.String.is_infix ~affix:"P0" text);
  Alcotest.(check bool) "names busiest" true (Astring.String.is_infix ~affix:"tx" text)

let test_metrics_empty_machine () =
  let sim = Sim.create (toy_arch 1) in
  let _ = Sim.run sim in
  let report = Machine.Metrics.analyse sim in
  Alcotest.(check (float 0.0)) "no imbalance" 0.0 (Machine.Metrics.imbalance report);
  Alcotest.(check int) "no messages" 0 report.Machine.Metrics.messages

(* A long stream through a 4-worker null-kernel df farm on ring 5, master
   on P0. Links leading away from P0 carry only tasks (an Int each), links
   leading towards it only results (an Int tagged with the worker index),
   so every hop on a link lasts the same startup + bytes / bandwidth and its
   busy total has a closed form in its transfer count. Linear link
   bookkeeping keeps this well under a second; a first-fit over every past
   reservation makes it take seconds. *)
let test_long_stream_occupancy () =
  let items = 20_000 in
  let table = Skel.Funtable.create () in
  Skel.Funtable.register table "w" ~cost:(fun _ -> 10_000.0) Fun.id;
  Skel.Funtable.register table "k" ~arity:2 ~cost:(fun _ -> 100.0) (fun v ->
      fst (V.to_pair v));
  let graph =
    Procnet.Expand.expand table
      (Skel.Ir.program "p"
         (Skel.Ir.Df
            { nworkers = 4; comp = "w"; acc = "k"; init = V.Int 0; state = Skel.Ir.Stateless }))
  in
  let arch = Archi.ring 5 in
  let placement = Syndex.Place.canonical graph arch in
  let input = V.List (List.init items (fun i -> V.Int i)) in
  let run trace =
    let r = Executive.run ~trace ~table ~arch ~placement ~graph ~frames:1 ~input () in
    Alcotest.(check bool) "completed" true (r.Executive.outcome = Executive.Completed);
    Alcotest.(check int) "two messages per item" (2 * items) r.Executive.stats.Sim.messages;
    r
  in
  let untraced = run false and traced = run true in
  let occupancy = Sim.link_occupancy untraced.Executive.sim in
  let transfers = List.fold_left (fun n (_, _, k) -> n + k) 0 occupancy in
  Alcotest.(check int) "a transfer per hop" untraced.Executive.stats.Sim.hops_total transfers;
  List.iter
    (fun ((src, dst), busy, k) ->
      let l = Option.get (Archi.link_between arch src dst) in
      let bytes =
        V.byte_size
          (if
             List.length (Archi.route arch 0 dst)
             < List.length (Archi.route arch 0 src)
           then V.Tuple [ V.Int 0; V.Int 0 ]
           else V.Int 0)
      in
      let expected =
        float_of_int k *. (l.Archi.startup +. (float_of_int bytes /. l.Archi.bandwidth))
      in
      if Float.abs (busy -. expected) > 1e-9 *. expected then
        Alcotest.failf "link %d->%d: busy %.17g, closed form %.17g" src dst busy expected)
    occupancy;
  Alcotest.(check bool) "traced run books the same occupancy" true
    (occupancy = Sim.link_occupancy traced.Executive.sim)

let () =
  Alcotest.run "machine"
    [
      ( "compute",
        [
          Alcotest.test_case "advances time" `Quick test_compute_advances_time;
          Alcotest.test_case "cpu exclusive" `Quick test_cpu_exclusive;
          Alcotest.test_case "processors overlap" `Quick test_parallel_processors_overlap;
          QCheck_alcotest.to_alcotest prop_compute_time_additive;
        ] );
      ( "communication",
        [
          Alcotest.test_case "latency model" `Quick test_message_latency_model;
          Alcotest.test_case "store and forward" `Quick test_store_and_forward;
          Alcotest.test_case "link contention" `Quick test_link_contention_serialises;
          Alcotest.test_case "local messages cheap" `Quick test_local_message_cheap;
          Alcotest.test_case "FIFO per port" `Quick test_fifo_per_port;
          Alcotest.test_case "recv_any earliest" `Quick test_recv_any;
          Alcotest.test_case "long stream occupancy" `Quick test_long_stream_occupancy;
        ] );
      ( "control",
        [
          Alcotest.test_case "sleep_until" `Quick test_sleep_until;
          Alcotest.test_case "now and mark_stable within a segment" `Quick
            test_answers_within_segment;
          Alcotest.test_case "blocked process tolerated" `Quick test_blocked_process_terminates_run;
          Alcotest.test_case "process failure wrapped" `Quick test_process_failure_wrapped;
          Alcotest.test_case "primitives need a process" `Quick test_primitives_outside_process;
          Alcotest.test_case "failure leaves the domain clean" `Quick
            test_failure_leaves_domain_clean;
          Alcotest.test_case "spawn validation" `Quick test_spawn_validation;
          Alcotest.test_case "run twice rejected" `Quick test_run_twice_rejected;
        ] );
      ( "observability",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "stats" `Quick test_stats_and_utilisation;
          Alcotest.test_case "trace and gantt" `Quick test_trace_and_gantt;
          Alcotest.test_case "process accounts" `Quick test_accounts_per_process;
          Alcotest.test_case "metrics report" `Quick test_metrics_report;
          Alcotest.test_case "metrics empty machine" `Quick test_metrics_empty_machine;
        ] );
    ]
