(* Determinism suite: parallel sweeps must be observationally invisible.
   The domain pool farms self-contained simulation jobs across OCaml 5
   domains; everything an observer can capture — trace JSON, metrics JSON,
   fault tallies, result ordering — must be byte-identical to a sequential
   run. These tests, plus the golden field-set pins at the bottom, are what
   CI's --jobs 1 vs --jobs 4 byte-comparison of bench artifacts rests on. *)

module V = Skel.Value
module Sim = Machine.Sim
module Dp = Support.Domain_pool
module Chrome = Skipper_trace.Chrome

(* Parallelism degree of the suite itself: SKIPPER_JOBS if set, else 4 so
   the pool really spawns domains even on a small CI machine (domains
   timeshare when cores are short; determinism must hold regardless). *)
let pool_jobs = Pool_env.jobs ~default:4 ()

(* ------------------------------------------------------------------ *)
(* A self-contained simulation job: a df farm on a ring with an optional
   fault plan and recovery — the same shape the bench sweeps farm out.    *)

type plan =
  | Healthy
  | Drop_nth of int
  | Dup_every of int
  | Delay_every of int
  | Prob_drop of float * int  (* probability, seed *)

type params = {
  nworkers : int;
  nitems : int;
  frames : int;
  plan : plan;
  recover : bool;
  mode : Skel.Ir.state_mode;  (* stateful farms must be as invisible *)
  checkpoint : int option;  (* durable master changes the wire protocol *)
}

(* The identity comp happens to satisfy every mode's contract: a
   [(state, x)] payload comes back as a [(state', y)] pair unchanged. *)
let init_for p =
  match p.mode with
  | Skel.Ir.Stateless | Skel.Ir.Accumulator -> V.Int 0
  | Skel.Ir.Read_only -> V.Tuple [ V.Int 1; V.Int 0 ]
  | Skel.Ir.Owner ->
      V.Tuple [ V.List (List.init p.nworkers (fun _ -> V.Int 0)); V.Int 0 ]
  | Skel.Ir.Resource -> V.Tuple [ V.Int 0; V.Int 0 ]

let run_job ?(faults = []) ?(restores = []) ?(colocate = false) p =
  let table = Skel.Funtable.create () in
  Skel.Funtable.register table "w" ~cost:(fun _ -> 10_000.0) (fun v -> v);
  Skel.Funtable.register table "k" ~arity:2 ~cost:(fun _ -> 100.0) (fun v ->
      fst (V.to_pair v));
  let prog =
    Skel.Ir.program "p"
      (Skel.Ir.Df { nworkers = p.nworkers; comp = "w"; acc = "k"; init = init_for p; state = p.mode })
  in
  let g = Procnet.Expand.expand table prog in
  let arch = Archi.ring (p.nworkers + 1) in
  let link_faults =
    match p.plan with
    | Healthy -> []
    | Drop_nth k -> [ Sim.link_fault ~schedule:(Sim.Nth k) Sim.Drop ]
    | Dup_every k -> [ Sim.link_fault ~schedule:(Sim.Every k) Sim.Duplicate ]
    | Delay_every k -> [ Sim.link_fault ~schedule:(Sim.Every k) (Sim.Delay 2e-3) ]
    | Prob_drop (pr, seed) ->
        [ Sim.link_fault ~schedule:(Sim.Prob (pr, seed)) Sim.Drop ]
  in
  let recovery = if p.recover then Some (Executive.recovery 5e-3) else None in
  (* canonical placement puts the master on P0 and worker i on P(i+1);
     [colocate] moves the first worker onto P0 too *)
  let placement = Syndex.Place.canonical g arch in
  (if colocate then
     match
       List.find_opt
         (fun (n : Procnet.Graph.node) ->
           match n.kind with Procnet.Graph.DfWorker _ -> true | _ -> false)
         (Array.to_list (Procnet.Graph.nodes g))
     with
     | Some w -> placement.(w.id) <- 0
     | None -> ());
  Executive.run ~trace:true ~faults ~restores ~link_faults ?recovery
    ?checkpoint_every:p.checkpoint ~table ~arch ~placement
    ~graph:g ~frames:p.frames
    ?input_period:(if p.frames > 1 then Some 0.01 else None)
    ~input:(V.List (List.init p.nitems (fun i -> V.Int i)))
    ()

(* Everything an observer can capture from a run, as bytes. *)
let fingerprint (r : Executive.result) =
  ( Chrome.to_json (Executive.timeline r),
    Machine.Metrics.to_json (Executive.metrics r) )

(* ------------------------------------------------------------------ *)
(* Pool semantics                                                      *)

let test_submit_order () =
  let results = Dp.run ~jobs:pool_jobs (List.init 16 (fun i () -> i)) in
  Alcotest.(check (list int)) "results in submit order" (List.init 16 Fun.id)
    results

let test_jobs1_equals_jobs4 () =
  let thunks () = List.init 9 (fun i () -> i * i) in
  Alcotest.(check (list int))
    "sequential and parallel results equal"
    (Dp.run ~jobs:1 (thunks ()))
    (Dp.run ~jobs:pool_jobs (thunks ()))

exception Boom of int

let test_earliest_exception_wins () =
  let ran = Atomic.make 0 in
  let job i () =
    Atomic.incr ran;
    if i = 1 || i = 3 then raise (Boom i) else i
  in
  (match Dp.run ~jobs:pool_jobs (List.init 6 job) with
  | _ -> Alcotest.fail "expected the pool to re-raise"
  | exception Boom i ->
      Alcotest.(check int) "earliest submitted failure re-raised" 1 i);
  Alcotest.(check int) "every job still ran" 6 (Atomic.get ran)

let test_stats_sanity () =
  let _, stats =
    Dp.run_stats ~jobs:3 (List.init 7 (fun i () -> Sys.opaque_identity i))
  in
  Alcotest.(check int) "njobs" 7 stats.Dp.njobs;
  Alcotest.(check bool) "domains within bounds" true
    (stats.Dp.domains >= 1 && stats.Dp.domains <= 3);
  Alcotest.(check int) "one span per job" 7 (List.length stats.Dp.spans);
  Alcotest.(check (list int)) "spans in submit order" (List.init 7 Fun.id)
    (List.map (fun (s : Dp.span) -> s.Dp.job) stats.Dp.spans);
  List.iter
    (fun (s : Dp.span) ->
      Alcotest.(check bool) "span worker in range" true
        (s.Dp.domain >= 0 && s.Dp.domain < stats.Dp.domains);
      Alcotest.(check bool) "span well-formed" true
        (s.Dp.start_s >= 0.0 && s.Dp.finish_s >= s.Dp.start_s))
    stats.Dp.spans;
  Alcotest.(check int) "jobs_run sums to njobs" 7
    (Array.fold_left ( + ) 0 stats.Dp.jobs_run)

(* ------------------------------------------------------------------ *)
(* Byte-identical observations through the pool                        *)

let gen_params =
  QCheck.Gen.(
    let plan =
      oneof
        [
          return Healthy;
          map (fun k -> Drop_nth k) (int_range 1 6);
          map (fun k -> Dup_every k) (int_range 2 6);
          map (fun k -> Delay_every k) (int_range 2 6);
          map2
            (fun p seed -> Prob_drop (float_of_int p /. 100.0, seed))
            (int_range 0 15) (int_range 0 999);
        ]
    in
    let mode =
      oneofl
        [
          Skel.Ir.Stateless; Skel.Ir.Read_only; Skel.Ir.Owner;
          Skel.Ir.Accumulator; Skel.Ir.Resource;
        ]
    in
    let checkpoint = oneof [ return None; map Option.some (int_range 1 3) ] in
    map
      (fun ((nworkers, nitems, frames, recover, plan), (mode, checkpoint)) ->
        (* reissue-on-timeout recovery composes with neither the stateful
           engine nor checkpointing; the executive rejects the pair *)
        let recover =
          recover && mode = Skel.Ir.Stateless && checkpoint = None
        in
        { nworkers; nitems; frames; plan; recover; mode; checkpoint })
      (tup2
         (tup5 (int_range 1 4) (int_range 1 12) (int_range 1 2) bool plan)
         (tup2 mode checkpoint)))

let print_params p =
  let plan =
    match p.plan with
    | Healthy -> "healthy"
    | Drop_nth k -> Printf.sprintf "drop-nth %d" k
    | Dup_every k -> Printf.sprintf "dup-every %d" k
    | Delay_every k -> Printf.sprintf "delay-every %d" k
    | Prob_drop (pr, seed) -> Printf.sprintf "prob-drop %.2f seed %d" pr seed
  in
  Printf.sprintf "{workers=%d; items=%d; frames=%d; %s; recover=%b; %s; ckpt=%s}"
    p.nworkers p.nitems p.frames plan p.recover
    (Skel.Ir.state_mode_name p.mode)
    (match p.checkpoint with None -> "-" | Some k -> string_of_int k)

let prop_pool_run_byte_identical =
  QCheck.Test.make ~name:"pooled run == sequential run (trace+metrics bytes)"
    ~count:20
    (QCheck.make ~print:print_params gen_params)
    (fun p ->
      let trace_seq, metrics_seq = fingerprint (run_job p) in
      (* three copies racing on distinct domains: any cross-domain leak in
         the simulator or the inference counter shows up as a byte diff *)
      let pooled =
        Dp.run ~jobs:pool_jobs
          (List.init 3 (fun _ () -> fingerprint (run_job p)))
      in
      List.for_all
        (fun (trace, metrics) -> trace = trace_seq && metrics = metrics_seq)
        pooled)

let test_seeded_fault_tally_reproducible () =
  let p =
    { nworkers = 3; nitems = 10; frames = 1; plan = Prob_drop (0.25, 7);
      recover = false; mode = Skel.Ir.Stateless; checkpoint = None }
  in
  let a = run_job p and b = run_job p in
  let ta = Sim.fault_tally a.Executive.sim
  and tb = Sim.fault_tally b.Executive.sim in
  Alcotest.(check bool) "the seeded plan really dropped something" true
    (ta.Sim.dropped > 0);
  Alcotest.(check int) "dropped" ta.Sim.dropped tb.Sim.dropped;
  Alcotest.(check int) "delayed" ta.Sim.delayed tb.Sim.delayed;
  Alcotest.(check int) "duplicated" ta.Sim.duplicated tb.Sim.duplicated;
  let ja = Machine.Metrics.to_json (Executive.metrics a)
  and jb = Machine.Metrics.to_json (Executive.metrics b) in
  Alcotest.(check string) "metrics JSON byte-identical" ja jb

(* ------------------------------------------------------------------ *)
(* Golden field sets: the machine-readable artifacts CI byte-compares.
   Deterministic fields and wall-clock fields are asserted separately —
   adding a timing field to a byte-compared blob is the mistake these
   pins exist to catch. *)

(* Keys of the first object in a JSON text (the object itself, or the
   first element of an array of objects), in order. *)
let top_keys s =
  match Support.Json.parse s with
  | Ok (Support.Json.Obj kvs) | Ok (Support.Json.Arr (Support.Json.Obj kvs :: _)) ->
      List.map fst kvs
  | Ok _ -> Alcotest.fail "expected a JSON object"
  | Error e -> Alcotest.fail e

let timing_fields keys = List.filter (fun k -> k = "wall_ms" || k = "wall_s") keys
let deterministic_fields keys = List.filter (fun k -> not (List.mem k (timing_fields keys))) keys

let healthy =
  { nworkers = 3; nitems = 8; frames = 1; plan = Healthy; recover = false;
    mode = Skel.Ir.Stateless; checkpoint = None }

let test_golden_metrics_json () =
  let json = Machine.Metrics.to_json (Executive.metrics (run_job healthy)) in
  let keys = top_keys json in
  Alcotest.(check (list string))
    "Metrics.to_json deterministic fields"
    [
      "finish_time_s"; "mean_utilisation"; "messages"; "bytes"; "imbalance";
      "link_contention"; "dropped_msgs"; "deadline_misses"; "reissues";
      "latency"; "processors"; "links"; "ports"; "processes";
    ]
    (deterministic_fields keys);
  Alcotest.(check (list string))
    "Metrics.to_json carries no wall-clock field" [] (timing_fields keys)

let test_golden_summary_json () =
  let rep = Executive.metrics (run_job healthy) in
  let json = Machine.Metrics.summary_json ~experiment:"e0" rep in
  let keys = top_keys json in
  Alcotest.(check (list string))
    "bench --json entry deterministic fields"
    [
      "experiment"; "finish_time"; "utilisation"; "messages"; "bytes";
      "imbalance"; "dropped_msgs"; "deadline_misses"; "reissues";
    ]
    (deterministic_fields keys);
  Alcotest.(check (list string))
    "bench --json entry carries no wall-clock field" [] (timing_fields keys)

(* The E17 entry carries the checkpoint/replay counters CI gates exactly
   (bench/baseline.json): pin its full field list so a renamed or dropped
   counter cannot silently weaken the gate. *)
let test_golden_e17_summary_json () =
  let rep =
    Executive.metrics
      (run_job { healthy with mode = Skel.Ir.Accumulator; checkpoint = Some 2 })
  in
  let extras =
    [
      ("checkpoints", 2.0); ("replayed_frames", 1.0); ("stall_collected", 5.0);
      ("outage_p50_ms", 1.0); ("outage_p95_ms", 1.0); ("outage_p99_ms", 1.0);
      ("recovery_overhead_ms", 1.0);
    ]
  in
  let json = Machine.Metrics.summary_json ~extras ~experiment:"e17" rep in
  let keys = top_keys json in
  Alcotest.(check (list string))
    "e17 bench --json entry deterministic fields"
    [
      "experiment"; "finish_time"; "utilisation"; "messages"; "bytes";
      "imbalance"; "dropped_msgs"; "deadline_misses"; "reissues";
      "checkpoints"; "replayed_frames"; "stall_collected";
      "outage_p50_ms"; "outage_p95_ms"; "outage_p99_ms";
      "recovery_overhead_ms";
    ]
    (deterministic_fields keys);
  Alcotest.(check (list string))
    "e17 entry carries no wall-clock field" [] (timing_fields keys)

let test_golden_series_json () =
  let r = run_job healthy in
  let series =
    match Executive.series r with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let json = Skipper_trace.Series.to_json series in
  let keys = top_keys json in
  Alcotest.(check (list string))
    "Series.to_json deterministic fields"
    [
      "width_s"; "horizon_s"; "nprocs"; "nwindows"; "totals"; "windows";
      "slos";
    ]
    (deterministic_fields keys);
  Alcotest.(check (list string))
    "Series.to_json carries no wall-clock field" [] (timing_fields keys)

let test_golden_stage_report_json () =
  let table = Skel.Funtable.create () in
  Skel.Funtable.register table "w" ~cost:(fun _ -> 1.0) (fun v -> v);
  Skel.Funtable.register table "k" ~arity:2 ~cost:(fun _ -> 1.0) (fun v ->
      fst (V.to_pair v));
  let c =
    Skipper_lib.Pipeline.compile_ir ~table
      (Skel.Ir.program "p"
         (Skel.Ir.Df { nworkers = 2; comp = "w"; acc = "k"; init = V.Int 0; state = Skel.Ir.Stateless }))
  in
  let json = Skipper_lib.Stage.reports_to_json (Skipper_lib.Pipeline.reports c) in
  let keys = top_keys json in
  Alcotest.(check (list string))
    "stage report deterministic fields"
    [ "pass"; "size"; "metric"; "cached"; "detail" ]
    (deterministic_fields keys);
  Alcotest.(check (list string))
    "stage report timing fields (never byte-compared)" [ "wall_ms" ]
    (timing_fields keys)

(* ------------------------------------------------------------------ *)
(* Golden bytes: every JSON export pinned by length and MD5, recorded
   before the exporters moved onto [Support.Json] (and re-pinned with
   exactly the deleted trace-truncation keys cut from those bytes). A
   change to any number's formatting, any escape or any field order fails
   here. *)

let check_bytes name (len, md5) s =
  Alcotest.(check (pair int string))
    (name ^ " bytes") (len, md5)
    (String.length s, Digest.to_hex (Digest.string s))

(* A paced six-frame farm whose third message is dropped, recovered by
   df reissue, watched by two SLOs. *)
let faulted = lazy (run_job { healthy with frames = 6; plan = Drop_nth 3; recover = true })

let faulted_series () =
  let spec s =
    match Skipper_trace.Series.Slo.parse s with
    | Ok sp -> sp
    | Error e -> Alcotest.fail e
  in
  match Executive.series (Lazy.force faulted) with
  | Ok s ->
      ( s,
        Skipper_trace.Series.Slo.evaluate
          [ spec "p99_latency<2ms"; spec "throughput >= 150fps" ]
          s )
  | Error e -> Alcotest.fail e

let test_bytes_series () =
  let series, slo = faulted_series () in
  check_bytes "Series.to_json ~slo"
    (4926, "9a9e0237c158fd618ff8d8712413be2c")
    (Skipper_trace.Series.to_json ~slo series)

let test_bytes_metrics () =
  check_bytes "Metrics.to_json"
    (1806, "606e3ace2097e76a2b536be942472191")
    (Machine.Metrics.to_json (Executive.metrics (Lazy.force faulted)))

let test_bytes_summary () =
  let extras =
    [ ("checkpoints", 2.0); ("outage_p50_ms", 1.0 /. 3.0); ("odd \"key\"\n", -0.5) ]
  in
  check_bytes "summary_json ~extras"
    (235, "05a7d0ebfd6f24e8a741250556f104d5")
    (Machine.Metrics.summary_json ~extras ~experiment:"e\tx"
       (Executive.metrics (Lazy.force faulted)))

let test_bytes_chrome () =
  let _, slo = faulted_series () in
  check_bytes "Chrome.to_json"
    (92639, "6e3abc865993286d80b822e948696e42")
    (Chrome.to_json (Executive.timeline ~slo (Lazy.force faulted)))

(* The paths that incarnation epochs and stale-event checks guard, on
   ring 5 where the workers' results share links. The checkpointed
   master's processor halts twice: a 0.2 us outage lands while one of the
   master's steps is pending, so that step arrives at the restored epoch
   and is dropped as stale; a 1.7 ms outage spools four deliveries and
   restarts the master, which replays a frame from its checkpoint. With
   the first worker on the master's processor, a 10 us outage lands while
   the master waits in the ready queue behind the worker's compute: the
   restart leaves that entry stale, and two deliveries are spooled. In the
   recovering farm a worker's processor is down for two frames: deliveries
   to it drop, [recv_deadline] timers fire and reissue, the worker is
   retired, and every wait answered in time leaves a stale timer behind. *)
let durable_halted =
  lazy
    (run_job
       ~faults:[ (0, 0.020003); (0, 0.0305) ]
       ~restores:[ (0, 0.0200032); (0, 0.0322) ]
       { healthy with nworkers = 4; frames = 6; mode = Skel.Ir.Accumulator;
         checkpoint = Some 2 })

let colocated_halted =
  lazy
    (run_job ~colocate:true ~faults:[ (0, 0.02112) ] ~restores:[ (0, 0.02113) ]
       { healthy with nworkers = 4; frames = 6; mode = Skel.Ir.Accumulator;
         checkpoint = Some 2 })

let recovering_halted =
  lazy
    (run_job ~faults:[ (2, 0.0101) ] ~restores:[ (2, 0.0305) ]
       { healthy with nworkers = 4; frames = 6; recover = true })

let test_bytes_halted () =
  List.iter
    (fun (name, run, chrome, metrics) ->
      let r = Lazy.force run in
      check_bytes (name ^ " Chrome.to_json") chrome
        (Chrome.to_json (Executive.timeline r));
      check_bytes (name ^ " Metrics.to_json") metrics
        (Machine.Metrics.to_json (Executive.metrics r)))
    [
      ("durable", durable_halted,
        (117199, "fd28502d1731556dfa53a4bdf419a36c"),
        (2196, "ff185c2f9ffa0455e8f19712930531c3"));
      ("colocated", colocated_halted,
        (70347, "d665bc2f91bfd9ea676a2479301b30d8"),
        (2194, "af0adfc4eb9d36f0cbb9d6866997b506"));
      ("recovering", recovering_halted,
        (94315, "bfb217309516e487ee9bf40a6b6bee27"),
        (2192, "a7bed589b294c4daf35c3ce7b2976e8f"));
    ]

let test_bytes_stage () =
  let report pass wall size metric cached detail =
    { Skipper_lib.Stage.pass; start = 1e9; wall; size; metric; cached; detail }
  in
  check_bytes "Stage.reports_to_json"
    (304, "1153047cf0257f1bafb42c6ef999b96c")
    (Skipper_lib.Stage.reports_to_json
       [
         report "parse" 0.0012345 42 "nodes" false "";
         report "map" 1.5 7 "procs" true "quote \" back \\ nl \n tab \t bell \007 \xc3\xa9";
         report "emit" (-0.0) 0 "bytes" false "";
       ])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "determinism"
    [
      ( "pool",
        [
          Alcotest.test_case "submit order" `Quick test_submit_order;
          Alcotest.test_case "jobs 1 == jobs N" `Quick test_jobs1_equals_jobs4;
          Alcotest.test_case "earliest exception wins" `Quick
            test_earliest_exception_wins;
          Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
        ] );
      ( "byte-identity",
        [
          QCheck_alcotest.to_alcotest prop_pool_run_byte_identical;
          Alcotest.test_case "seeded fault tally reproducible" `Quick
            test_seeded_fault_tally_reproducible;
        ] );
      ( "golden-fields",
        [
          Alcotest.test_case "Metrics.to_json" `Quick test_golden_metrics_json;
          Alcotest.test_case "bench --json entry" `Quick test_golden_summary_json;
          Alcotest.test_case "e17 bench entry" `Quick
            test_golden_e17_summary_json;
          Alcotest.test_case "series" `Quick test_golden_series_json;
          Alcotest.test_case "stage report" `Quick test_golden_stage_report_json;
        ] );
      ( "golden-bytes",
        [
          Alcotest.test_case "Series.to_json ~slo" `Quick test_bytes_series;
          Alcotest.test_case "Metrics.to_json" `Quick test_bytes_metrics;
          Alcotest.test_case "summary_json ~extras" `Quick test_bytes_summary;
          Alcotest.test_case "Chrome.to_json" `Quick test_bytes_chrome;
          Alcotest.test_case "Stage.reports_to_json" `Quick test_bytes_stage;
          Alcotest.test_case "halted farms" `Quick test_bytes_halted;
        ] );
    ]
