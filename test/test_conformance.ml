(* Conformance suite: the profiler's verdicts must be sound and stable.
   Soundness: the measured critical path is a real chain of activities, so
   its length can never exceed the measured makespan and never undercut the
   longest single activity it must traverse. Stability: the JSON report is
   byte-identical whether runs are farmed over 1 or N domains, faults can
   only push the measured run *away* from the predicted schedule, and the
   baseline gate trips on exactly the drifts it promises to catch. *)

module V = Skel.Value
module Sim = Machine.Sim
module Dp = Support.Domain_pool
module J = Support.Json
module B = Support.Baseline
module C = Skipper_trace.Conformance
module E = Skipper_trace.Event
module P = Skipper_lib.Pipeline

let pool_jobs = Dp.jobs_from_env ~default:4 ()

(* ------------------------------------------------------------------ *)
(* A df farm with a uniform per-item cost: every worker op span has the
   same duration, so the critical path provably crosses one of them.    *)

type params = { nworkers : int; nitems : int; scale : float }

let run_farm ?link_faults p =
  let table = Skel.Funtable.create () in
  Skel.Funtable.register table "w" ~cost:(fun _ -> p.scale) (fun v -> v);
  Skel.Funtable.register table "k" ~arity:2 ~cost:(fun _ -> 100.0) (fun v ->
      fst (V.to_pair v));
  let compiled =
    P.compile_ir ~table
      (Skel.Ir.program "farm"
         (Skel.Ir.Df
            {
              nworkers = p.nworkers;
              comp = "w";
              acc = "k";
              init = V.Int 0;
              state = Skel.Ir.Stateless;
            }))
  in
  let arch = Archi.ring (p.nworkers + 1) in
  P.execute_with_schedule ~trace:true ?link_faults
    ~input:(V.List (List.init p.nitems (fun i -> V.Int i)))
    compiled arch

let conformance_of (schedule, (r : Executive.result)) =
  match Skipper_trace.Conformance.analyse ~schedule (Executive.timeline r) with
  | Ok rep -> rep
  | Error e -> Alcotest.fail e

(* Longest single activity span recorded anywhere on a processor track. *)
let longest_span (r : Executive.result) =
  List.fold_left
    (fun acc (e : E.t) ->
      match e.E.kind with
      | E.Span d when e.E.lane.E.track >= 3 -> Float.max acc d
      | _ -> acc)
    0.0
    (E.events (Executive.timeline r))

(* ------------------------------------------------------------------ *)
(* Critical-path soundness (qcheck)                                    *)

let gen_params =
  QCheck.Gen.(
    map
      (fun (nworkers, nitems, scale) -> { nworkers; nitems; scale })
      (tup3 (int_range 1 4) (int_range 1 10)
         (oneofl [ 1_000.0; 10_000.0; 100_000.0 ])))

let print_params p =
  Printf.sprintf "{workers=%d; items=%d; scale=%.0f}" p.nworkers p.nitems
    p.scale

let rec chronological = function
  | a :: (b :: _ as rest) ->
      a.C.elem_start <= b.C.elem_start && chronological rest
  | _ -> true

let prop_critical_path_sound =
  QCheck.Test.make
    ~name:"path length in [longest op span, measured makespan]" ~count:30
    (QCheck.make ~print:print_params gen_params)
    (fun p ->
      let schedule, r = run_farm p in
      let rep = conformance_of (schedule, r) in
      let eps = 1e-9 *. Float.max 1.0 rep.C.measured_makespan in
      let share_sum =
        List.fold_left (fun a e -> a +. e.C.share) 0.0 rep.C.path
      in
      rep.C.path <> []
      && chronological rep.C.path
      && rep.C.path_length <= rep.C.measured_makespan +. eps
      && rep.C.path_length +. eps >= longest_span r
      && List.for_all
           (fun e ->
             e.C.contribution >= -.eps
             && e.C.contribution <= e.C.elem_finish -. e.C.elem_start +. eps)
           rep.C.path
      && Float.abs (share_sum -. 1.0) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Stability                                                           *)

let fingerprint p = J.to_string (C.to_json (conformance_of (run_farm p)))

let test_json_byte_identical_across_jobs () =
  let p = { nworkers = 3; nitems = 8; scale = 10_000.0 } in
  let seq = fingerprint p in
  let pooled =
    Dp.run ~jobs:pool_jobs (List.init 3 (fun _ () -> fingerprint p))
  in
  List.iteri
    (fun i json ->
      Alcotest.(check string)
        (Printf.sprintf "pooled copy %d == sequential" i)
        seq json)
    pooled

let test_faults_increase_divergence () =
  let p = { nworkers = 3; nitems = 8; scale = 10_000.0 } in
  let healthy = conformance_of (run_farm p) in
  let faulty =
    conformance_of
      (run_farm
         ~link_faults:
           [ Sim.link_fault ~schedule:(Sim.Every 2) (Sim.Delay 2e-3) ]
         p)
  in
  Alcotest.(check bool) "faults slow the measured run" true
    (faulty.C.measured_makespan > healthy.C.measured_makespan);
  Alcotest.(check bool) "faults increase divergence" true
    (faulty.C.divergence > healthy.C.divergence)

(* ------------------------------------------------------------------ *)
(* hottest_link tie-break                                              *)

let mk_report links =
  {
    Machine.Metrics.finish_time = 1.0;
    mean_utilisation = 0.0;
    loads = [];
    hottest_process = None;
    messages = 0;
    bytes = 0;
    links;
    port_depths = [];
    breakdown = [];
    dropped_msgs = 0;
    deadline_misses = 0;
    reissues = 0;
    latency = None;
  }

let mk_link src dst link_busy =
  { Machine.Metrics.src; dst; link_busy; transfers = 1; occupancy = 0.1 }

let test_hottest_link_tie_break () =
  let pair = function
    | Some l -> (l.Machine.Metrics.src, l.Machine.Metrics.dst)
    | None -> Alcotest.fail "expected a hottest link"
  in
  Alcotest.(check (pair int int))
    "equal loads break to the lowest (src, dst)" (0, 3)
    (pair
       (Machine.Metrics.hottest_link
          (mk_report [ mk_link 2 1 5.0; mk_link 1 2 5.0; mk_link 0 3 5.0 ])));
  Alcotest.(check (pair int int))
    "a strictly heavier link still wins" (2, 1)
    (pair
       (Machine.Metrics.hottest_link
          (mk_report [ mk_link 0 3 4.0; mk_link 2 1 5.0 ])));
  Alcotest.(check bool) "no traffic, no hottest link" true
    (Machine.Metrics.hottest_link (mk_report []) = None)

(* ------------------------------------------------------------------ *)
(* Latency distribution                                                *)

let test_latency_stats () =
  Alcotest.(check bool) "empty list gives None" true
    (Machine.Metrics.latency_stats [] = None);
  (match Machine.Metrics.latency_stats [ 5.0 ] with
  | Some s ->
      Alcotest.(check (float 1e-12)) "singleton mean" 5.0 s.Machine.Metrics.mean_latency;
      Alcotest.(check (float 1e-12)) "singleton p50" 5.0 s.Machine.Metrics.p50;
      Alcotest.(check (float 1e-12)) "singleton p95" 5.0 s.Machine.Metrics.p95;
      Alcotest.(check (float 1e-12)) "singleton p99" 5.0 s.Machine.Metrics.p99;
      Alcotest.(check (float 1e-12)) "singleton jitter" 0.0 s.Machine.Metrics.jitter
  | None -> Alcotest.fail "singleton should produce stats");
  (* the documented nearest-rank convention: rank round(q*n + 0.5) rounds
     half away from zero, so p50 of a pair is the *larger* element *)
  (match Machine.Metrics.latency_stats [ 2.0; 1.0 ] with
  | Some s ->
      Alcotest.(check (float 1e-12)) "pair p50 is the larger element" 2.0
        s.Machine.Metrics.p50;
      Alcotest.(check (float 1e-12)) "pair p99 is the max" 2.0
        s.Machine.Metrics.p99;
      Alcotest.(check (float 1e-12)) "pair jitter is the population sd" 0.5
        s.Machine.Metrics.jitter
  | None -> Alcotest.fail "pair should produce stats");
  match Machine.Metrics.latency_stats (List.init 100 (fun i -> float (i + 1))) with
  | Some s ->
      let open Machine.Metrics in
      Alcotest.(check int) "n" 100 s.n;
      Alcotest.(check (float 1e-9)) "mean" 50.5 s.mean_latency;
      Alcotest.(check bool) "percentiles ordered" true
        (s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= 100.0);
      Alcotest.(check bool) "p50 near the median" true
        (Float.abs (s.p50 -. 50.5) <= 1.0);
      Alcotest.(check bool) "jitter positive" true (s.jitter > 0.0)
  | None -> Alcotest.fail "expected stats"

(* ------------------------------------------------------------------ *)
(* JSON round-trip and the baseline gate                               *)

let test_json_round_trip () =
  let v =
    J.Arr
      [
        J.Obj
          [
            ("a", J.Num 1.0);
            ("b", J.Str "x\"y\\z");
            ("c", J.Arr [ J.Null; J.Bool true; J.Num 0.25; J.Num (-3.0) ]);
            ("d", J.Obj []);
          ];
        J.Num 2.5e-3;
      ]
  in
  (match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "parse (to_string v) = v" true (v = v')
  | Error e -> Alcotest.fail e);
  (match J.parse " [1, 2.5e-3] " with
  | Ok (J.Arr [ J.Num 1.0; J.Num 2.5e-3 ]) -> ()
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.fail e);
  match J.parse "tru" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated literal must not parse"

let entry ?(name = "e1") msgs ft =
  J.Obj
    [
      ("experiment", J.Str name); ("messages", J.Num msgs);
      ("finish_time", J.Num ft);
    ]

let check_verdict what expected verdict =
  Alcotest.(check bool) what expected (B.ok verdict)

let test_baseline_gate () =
  let exact = [ "messages" ] in
  let base = J.Arr [ entry 100.0 1.0 ] in
  check_verdict "identical arrays pass" true
    (B.compare ~exact ~baseline:base ~current:(J.Arr [ entry 100.0 1.0 ]) ());
  check_verdict "perturbed deterministic counter fails" false
    (B.compare ~exact ~baseline:base ~current:(J.Arr [ entry 101.0 1.0 ]) ());
  check_verdict "small timing drift within tolerance passes" true
    (B.compare ~exact ~baseline:base ~current:(J.Arr [ entry 100.0 1.005 ]) ());
  check_verdict "large timing drift fails" false
    (B.compare ~exact ~baseline:base ~current:(J.Arr [ entry 100.0 1.05 ]) ());
  check_verdict "missing experiment fails" false
    (B.compare ~exact ~baseline:base ~current:(J.Arr []) ());
  check_verdict "added experiment fails" false
    (B.compare ~exact ~baseline:base
       ~current:(J.Arr [ entry 100.0 1.0; entry ~name:"e2" 1.0 1.0 ])
       ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "conformance"
    [
      ( "critical-path",
        [
          QCheck_alcotest.to_alcotest prop_critical_path_sound;
          Alcotest.test_case "faults increase divergence" `Quick
            test_faults_increase_divergence;
        ] );
      ( "stability",
        [
          Alcotest.test_case "JSON byte-identical across jobs" `Quick
            test_json_byte_identical_across_jobs;
          Alcotest.test_case "hottest link tie-break" `Quick
            test_hottest_link_tie_break;
        ] );
      ( "metrics",
        [ Alcotest.test_case "latency stats" `Quick test_latency_stats ] );
      ( "baseline",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
          Alcotest.test_case "gate verdicts" `Quick test_baseline_gate;
        ] );
    ]
