(* The unified trace/telemetry layer: event model, simulator lifecycle
   recording, Chrome-trace and SVG exporters. *)

module V = Skel.Value
module Sim = Machine.Sim
module Event = Skipper_trace.Event
module Chrome = Skipper_trace.Chrome
module Svg = Skipper_trace.Svg

let contains ~affix s = Astring.String.is_infix ~affix s

(* A small data farm: one master, [nworkers] workers on a ring, plus an
   environment injection — exercises every lifecycle event kind. *)
let farm_run ?(trace = true) ?(nworkers = 3) ?(nitems = 8) () =
  let table = Skel.Funtable.create () in
  Skel.Funtable.register table "w" ~cost:(fun _ -> 10_000.0) (fun v -> v);
  Skel.Funtable.register table "k" ~arity:2 ~cost:(fun _ -> 100.0) (fun v ->
      fst (V.to_pair v));
  let prog =
    Skel.Ir.program "p"
      (Skel.Ir.Df { nworkers; comp = "w"; acc = "k"; init = V.Int 0; state = Skel.Ir.Stateless })
  in
  let g = Procnet.Expand.expand table prog in
  let arch = Archi.ring (nworkers + 1) in
  Executive.run ~trace ~table ~arch
    ~placement:(Syndex.Place.canonical g arch)
    ~graph:g ~frames:1
    ~input:(V.List (List.init nitems (fun i -> V.Int i)))
    ()

(* Timeline queries: the simulator's events are told apart by category,
   name and kind; lifecycle events carry their message id as the "msg"
   argument. *)
let sim_events (r : Executive.result) =
  Event.events (Sim.timeline r.Executive.sim)

let msg_of (e : Event.t) =
  match List.assoc_opt "msg" e.Event.args with
  | Some (Event.Count m) -> Some m
  | _ -> None

let is_span (e : Event.t) =
  match e.Event.kind with Event.Span _ -> true | _ -> false

let is_flow (e : Event.t) =
  match e.Event.kind with
  | Event.Flow_start _ | Event.Flow_end _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Event model                                                         *)

let test_timeline_basics () =
  let tl = Event.create () in
  Alcotest.(check int) "empty" 0 (Event.length tl);
  Event.span tl ~lane:Event.compile_lane ~cat:"stage" ~name:"parse" ~time:0.0
    ~dur:1e-3 ();
  Event.instant tl ~lane:Event.env_lane ~cat:"inject" ~name:"in" ~time:2e-3 ();
  Event.span tl ~lane:Event.compile_lane ~cat:"stage" ~name:"expand" ~time:1e-3
    ~dur:0.5e-3 ();
  Alcotest.(check int) "three events" 3 (Event.length tl);
  (match Event.events tl with
  | [ a; b; c ] ->
      Alcotest.(check string) "emission order" "parse/in/expand"
        (String.concat "/" [ a.Event.name; b.Event.name; c.Event.name ])
  | _ -> Alcotest.fail "expected three events");
  (match Event.by_time tl with
  | [ a; b; c ] ->
      Alcotest.(check string) "time order" "parse/expand/in"
        (String.concat "/" [ a.Event.name; b.Event.name; c.Event.name ])
  | _ -> Alcotest.fail "expected three events");
  let dst = Event.create () in
  Event.instant dst ~lane:Event.env_lane ~cat:"inject" ~name:"first"
    ~time:0.0 ();
  Event.append dst tl;
  Alcotest.(check string) "append keeps order after existing events"
    "first/parse/in/expand"
    (String.concat "/" (List.map (fun e -> e.Event.name) (Event.events dst)));
  Alcotest.(check int) "append counts" 4 (Event.length dst);
  Alcotest.(check int) "source unchanged" 3 (Event.length tl)

let test_lane_conventions () =
  Alcotest.(check int) "compile" 0 Event.compile_track;
  Alcotest.(check int) "env" 1 Event.env_track;
  Alcotest.(check int) "links" 2 Event.links_track;
  Alcotest.(check int) "processor 0" 3 (Event.processor_track 0);
  let l = Event.link_lane ~src:1 ~dst:2 ~nprocs:4 in
  Alcotest.(check string) "link label" "P1->P2" l.Event.label;
  Alcotest.(check int) "link index" 6 l.Event.index;
  let p = Event.processor_lane ~proc:2 ~pid:7 ~name:"worker" in
  Alcotest.(check int) "processor track" 5 p.Event.track;
  Alcotest.(check int) "process lane" 7 p.Event.index

(* ------------------------------------------------------------------ *)
(* Simulator lifecycle recording                                       *)

let test_message_lifecycle_pairing () =
  let r = farm_run () in
  let events = List.filter (fun e -> not (is_flow e)) (sim_events r) in
  let sends = Hashtbl.create 64 and delivers = Hashtbl.create 64 in
  List.iter
    (fun (e : Event.t) ->
      match (e.Event.cat, msg_of e) with
      | "send", Some msg -> Hashtbl.replace sends msg ()
      | "deliver", Some msg -> Hashtbl.replace delivers msg ()
      | _ -> ())
    events;
  Alcotest.(check bool) "some messages" true (Hashtbl.length sends > 0);
  List.iter
    (fun (e : Event.t) ->
      match (e.Event.cat, msg_of e) with
      | ("deliver" | "recv"), Some msg ->
          Alcotest.(check bool)
            (Printf.sprintf "message %d has a send" msg)
            true (Hashtbl.mem sends msg)
      | "link", Some msg ->
          Alcotest.(check bool)
            (Printf.sprintf "hop %d has a send" msg)
            true (Hashtbl.mem sends msg)
      | _ -> ())
    events;
  (* every send was delivered: the farm drains fully *)
  Hashtbl.iter
    (fun msg () ->
      Alcotest.(check bool)
        (Printf.sprintf "message %d delivered" msg)
        true (Hashtbl.mem delivers msg))
    sends

let test_untraced_machine_records_nothing () =
  let r = farm_run ~trace:false () in
  Alcotest.(check int) "no events" 0 (List.length (sim_events r));
  Alcotest.(check int) "empty timeline" 0
    (Event.length (Executive.timeline r))

(* A traced run records every step, however long: a farm of 4000 items
   makes well over 20 000 simulator records (each emits one span or
   instant, plus a flow endpoint for sends and receives), and the series
   still counts every message and every flow is closed. *)
let test_long_run_complete () =
  let r = farm_run ~nitems:4000 () in
  (match Executive.series r with
  | Ok series ->
      Alcotest.(check int) "series counts every message"
        (Sim.stats r.Executive.sim).Sim.messages
        (Skipper_trace.Series.totals series).Skipper_trace.Series.total_messages
  | Error e -> Alcotest.fail e);
  let starts = Hashtbl.create 4096 and ends = Hashtbl.create 4096 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Flow_start f -> Hashtbl.replace starts f ()
      | Event.Flow_end f -> Hashtbl.replace ends f ()
      | _ -> ())
    (sim_events r);
  Alcotest.(check bool) "some flows" true (Hashtbl.length starts > 0);
  Hashtbl.iter
    (fun f () ->
      if not (Hashtbl.mem ends f) then Alcotest.failf "flow %d has no end" f)
    starts;
  Hashtbl.iter
    (fun f () ->
      if not (Hashtbl.mem starts f) then Alcotest.failf "flow %d has no start" f)
    ends;
  let records = List.filter (fun e -> not (is_flow e)) (sim_events r) in
  Alcotest.(check bool) "more than 20 000 records" true
    (List.length records > 20_000)

(* The machine owns its timeline; the exported timelines are copies. Asking
   for one twice (with SLO instants appended), then for the toolchain-wide
   one, must neither duplicate events nor touch the machine's own. *)
let test_timeline_copies_independent () =
  let table = Skel.Funtable.create () in
  Skel.Funtable.register table "w" ~cost:(fun _ -> 10_000.0) (fun v -> v);
  Skel.Funtable.register table "k" ~arity:2 ~cost:(fun _ -> 100.0) (fun v ->
      fst (V.to_pair v));
  let compiled =
    Skipper_lib.Pipeline.compile_ir ~table
      (Skel.Ir.program "p"
         (Skel.Ir.Df
            { nworkers = 3; comp = "w"; acc = "k"; init = V.Int 0;
              state = Skel.Ir.Stateless }))
  in
  let _, r =
    Skipper_lib.Pipeline.execute_with_schedule ~trace:true
      ~input:(V.List (List.init 8 (fun i -> V.Int i)))
      compiled (Archi.ring 4)
  in
  let own () = Chrome.to_json (Sim.timeline r.Executive.sim) in
  let before = own () in
  let n = Event.length (Sim.timeline r.Executive.sim) in
  let slo =
    let module Slo = Skipper_trace.Series.Slo in
    match (Executive.series r, Slo.parse "p99_latency<1us") with
    | Ok series, Ok spec -> Slo.evaluate [ spec ] series
    | Error e, _ | _, Error e -> Alcotest.fail e
  in
  let a = Executive.timeline ~slo r in
  let b = Executive.timeline ~slo r in
  let nslo = Event.length a - n in
  Alcotest.(check bool) "slo instants appended" true (nslo > 0);
  Alcotest.(check string) "second call is byte-identical" (Chrome.to_json a)
    (Chrome.to_json b);
  let stages = List.length (Skipper_lib.Pipeline.reports compiled) in
  let whole = Skipper_lib.Pipeline.timeline ~result:r ~slo compiled in
  Alcotest.(check int) "pipeline timeline: stages + machine + slo"
    (stages + n + nslo) (Event.length whole);
  Alcotest.(check int) "machine timeline length unchanged" n
    (Event.length (Sim.timeline r.Executive.sim));
  Alcotest.(check string) "machine timeline bytes unchanged" before (own ())

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let test_chrome_export_deterministic () =
  let json () = Chrome.to_json (Executive.timeline (farm_run ())) in
  let a = json () and b = json () in
  Alcotest.(check bool) "non-trivial" true (String.length a > 1000);
  Alcotest.(check string) "byte-identical across runs" a b

let test_chrome_export_shape () =
  let r = farm_run () in
  let json = Chrome.to_json (Executive.timeline r) in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" affix) true
        (contains ~affix json))
    [
      {|"displayTimeUnit":"ms"|};
      {|"ph":"X"|};  (* spans *)
      {|"ph":"s"|};  (* flow starts *)
      {|"ph":"f"|};  (* flow ends *)
      {|"name":"process_name"|};
      {|"name":"links"|};
      {|"name":"environment"|};
      {|"name":"compute"|};
    ]

let test_compile_spans_on_timeline () =
  let table = Skel.Funtable.create () in
  Skel.Funtable.register table "f" ~cost:(fun _ -> 1000.0) (fun v -> v);
  let prog = Skel.Ir.program "p" (Skel.Ir.Seq "f") in
  let c = Skipper_lib.Pipeline.compile_ir ~table prog in
  let tl = Skipper_lib.Pipeline.timeline c in
  let stage_names =
    List.filter_map
      (fun (e : Event.t) ->
        if e.Event.cat = "stage" then Some e.Event.name else None)
      (Event.events tl)
  in
  Alcotest.(check bool) "has the expand stage" true
    (List.mem "expand" stage_names);
  Alcotest.(check bool) "has the transform stage" true
    (List.mem "transform" stage_names);
  (* the combined export parses both worlds into one JSON document *)
  let json = Chrome.to_json tl in
  Alcotest.(check bool) "toolchain track present" true
    (contains ~affix:{|"name":"toolchain"|} json)

let test_svg_export () =
  let r = farm_run () in
  match Svg.gantt (Executive.timeline r) with
  | Error msg -> Alcotest.failf "svg export failed: %s" msg
  | Ok svg ->
      List.iter
        (fun affix ->
          Alcotest.(check bool) (Printf.sprintf "contains %s" affix) true
            (contains ~affix svg))
        [ "<svg"; "</svg>"; "P0"; {|marker-end="url(#arrow)"|}; "<title>" ]

let test_svg_empty_timeline_error () =
  match Svg.gantt (Event.create ()) with
  | Ok _ -> Alcotest.fail "expected an error on an empty timeline"
  | Error msg ->
      Alcotest.(check bool) "explains the cause" true
        (contains ~affix:"tracing was not enabled" msg)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let prop_trace_counts_match_stats =
  QCheck.Test.make ~name:"trace send/hop counts match Sim.stats" ~count:25
    QCheck.(pair (int_range 1 4) (int_range 1 12))
    (fun (nworkers, nitems) ->
      let r = farm_run ~nworkers ~nitems () in
      let st = Sim.stats r.Executive.sim in
      let sends = ref 0 and hops = ref 0 in
      List.iter
        (fun (e : Event.t) ->
          match e.Event.cat with
          (* environment injections are instants, process sends spans *)
          | "send" when is_span e -> incr sends
          | "link" -> incr hops
          | _ -> ())
        (sim_events r);
      !sends = st.Sim.messages && !hops = st.Sim.hops_total)

let prop_busy_spans_match_accounts =
  QCheck.Test.make ~name:"span durations sum to account busy time" ~count:25
    QCheck.(pair (int_range 1 4) (int_range 1 10))
    (fun (nworkers, nitems) ->
      let r = farm_run ~nworkers ~nitems () in
      let sim = r.Executive.sim in
      let busy = Hashtbl.create 16 in
      List.iter
        (fun (e : Event.t) ->
          (* a process lane's index is its pid *)
          let pid = e.Event.lane.Event.index in
          match (e.Event.cat, e.Event.kind) with
          | ("compute" | "send" | "recv"), Event.Span dur
            when e.Event.lane.Event.track >= Event.processor_track 0 ->
              Hashtbl.replace busy pid
                (dur +. Option.value ~default:0.0 (Hashtbl.find_opt busy pid))
          | _ -> ())
        (sim_events r);
      List.for_all2
        (fun (a : Sim.account) pid ->
          let traced = Option.value ~default:0.0 (Hashtbl.find_opt busy pid) in
          abs_float (traced -. a.Sim.busy_s) < 1e-9)
        (Sim.accounts sim)
        (List.init (List.length (Sim.accounts sim)) Fun.id))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "trace"
    [
      ( "event model",
        [
          Alcotest.test_case "timeline basics" `Quick test_timeline_basics;
          Alcotest.test_case "lane conventions" `Quick test_lane_conventions;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "message pairing" `Quick
            test_message_lifecycle_pairing;
          Alcotest.test_case "untraced records nothing" `Quick
            test_untraced_machine_records_nothing;
          Alcotest.test_case "a run past the old cap is complete" `Quick
            test_long_run_complete;
          Alcotest.test_case "timeline copies independent" `Quick
            test_timeline_copies_independent;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome deterministic" `Quick
            test_chrome_export_deterministic;
          Alcotest.test_case "chrome shape" `Quick test_chrome_export_shape;
          Alcotest.test_case "compile spans" `Quick
            test_compile_spans_on_timeline;
          Alcotest.test_case "svg gantt" `Quick test_svg_export;
          Alcotest.test_case "svg empty error" `Quick
            test_svg_empty_timeline_error;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_trace_counts_match_stats;
          QCheck_alcotest.to_alcotest prop_busy_spans_match_accounts;
        ] );
    ]
