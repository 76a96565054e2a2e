(* Series suite: the windowed telemetry must agree with the run it was
   folded from: per-window totals sum exactly to the executive's own
   counters (qcheck), and pooled builds are byte-identical to sequential
   ones — the invariant CI's --jobs 1 vs --jobs 4 comparison of series
   artifacts rests on. On top sit the SLO monitor's unit semantics: spec
   parsing, the burn-rate state machine, and the fault-window alerting
   story end to end. *)

module V = Skel.Value
module Sim = Machine.Sim
module Dp = Support.Domain_pool
module S = Skipper_trace.Series
module H = Support.Histogram
module E = Skipper_trace.Event

let pool_jobs = Dp.jobs_from_env ~default:4 ()

(* ------------------------------------------------------------------ *)
(* A df farm on a ring: the same self-contained job shape the bench and
   determinism suites use, with an optional processor fault plan.       *)

type params = { nworkers : int; nitems : int; frames : int }

let run_farm ?(trace = true) ?(faults = []) ?(restores = []) ?recovery
    ?input_period p =
  let table = Skel.Funtable.create () in
  Skel.Funtable.register table "w" ~cost:(fun _ -> 10_000.0) (fun v -> v);
  Skel.Funtable.register table "k" ~arity:2 ~cost:(fun _ -> 100.0) (fun v ->
      fst (V.to_pair v));
  let prog =
    Skel.Ir.program "p"
      (Skel.Ir.Df { nworkers = p.nworkers; comp = "w"; acc = "k"; init = V.Int 0; state = Skel.Ir.Stateless })
  in
  let g = Procnet.Expand.expand table prog in
  let arch = Archi.ring (p.nworkers + 1) in
  Executive.run ~trace ~faults ~restores ?recovery ~table ~arch
    ~placement:(Syndex.Place.canonical g arch)
    ~graph:g ~frames:p.frames ?input_period
    ~input:(V.List (List.init p.nitems (fun i -> V.Int i)))
    ()

let series_of ?width r =
  match Executive.series ?width r with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let spec_ok s =
  match S.Slo.parse s with
  | Ok spec -> spec
  | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" s e)

(* ------------------------------------------------------------------ *)
(* Histogram semantics                                                 *)

let test_hist () =
  let h = H.create () in
  Alcotest.(check int) "empty count" 0 (H.count h);
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (H.quantile h 0.99);
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (H.mean h);
  List.iter (H.add h) [ 1e-3; 2e-3; 4e-3; 8e-3 ];
  Alcotest.(check int) "count" 4 (H.count h);
  Alcotest.(check (float 1e-12)) "sum is exact, not bucket-quantised" 15e-3
    (H.sum h);
  Alcotest.(check (float 1e-12)) "mean" 3.75e-3 (H.mean h);
  (* nearest-rank: q = 0.5 over 4 samples is rank 2, reported as the upper
     bound of the bucket holding 2 ms — conservative by ≤ one ratio (9%) *)
  let q50 = H.quantile h 0.5 in
  Alcotest.(check bool) "p50 within one bucket of 2 ms" true
    (q50 >= 2e-3 && q50 <= 2e-3 *. 1.1);
  let q100 = H.quantile h 1.0 in
  Alcotest.(check bool) "p100 covers the max" true
    (q100 >= 8e-3 && q100 <= 8e-3 *. 1.1);
  (* merge is sample concatenation: commutative, and equal to one bulk
     build whatever the insertion order *)
  let a = H.create () and b = H.create () in
  List.iter (H.add a) [ 1e-3; 4e-3 ];
  List.iter (H.add b) [ 2e-3; 8e-3 ];
  let ab = H.merge a b and ba = H.merge b a in
  Alcotest.(check bool) "merge commutes" true
    (H.buckets ab = H.buckets ba);
  Alcotest.(check bool) "merge equals the bulk build" true
    (H.buckets ab = H.buckets h);
  Alcotest.(check int) "merged count" 4 (H.count ab);
  Alcotest.(check (float 1e-12)) "merged sum" 15e-3 (H.sum ab)

(* ------------------------------------------------------------------ *)
(* SLO spec parsing                                                    *)

let test_slo_parse () =
  let sp = spec_ok "p99_latency<8ms" in
  Alcotest.(check bool) "p99 metric" true (sp.S.Slo.metric = S.Slo.P99);
  Alcotest.(check bool) "strict less" true (sp.S.Slo.op = S.Slo.Lt);
  Alcotest.(check (float 1e-12)) "8 ms in seconds" 8e-3 sp.S.Slo.threshold;
  Alcotest.(check (float 1e-15)) "microsecond suffix" 250e-6
    (spec_ok "p50 <= 250us").S.Slo.threshold;
  Alcotest.(check (float 1e-12)) "percent is a ratio" 0.01
    (spec_ok "miss_rate<1%").S.Slo.threshold;
  Alcotest.(check bool) "throughput with fps suffix" true
    (let sp = spec_ok "throughput>=20fps" in
     sp.S.Slo.metric = S.Slo.Throughput
     && sp.S.Slo.op = S.Slo.Ge
     && sp.S.Slo.threshold = 20.0);
  Alcotest.(check (float 1e-12)) "bare ratio" 0.5
    (spec_ok "utilisation>0.5").S.Slo.threshold;
  Alcotest.(check bool) "period metric" true
    ((spec_ok "period<3ms").S.Slo.metric = S.Slo.Period);
  List.iter
    (fun bad ->
      match S.Slo.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must not parse" bad))
    [
      "p42<1ms"; "p99_latency=8ms"; "p99_latency<wat"; ""; "miss_rate";
      "p99_latency<nanms"; "p99_latency<infms"; "p99_latency<1e400ms";
      "p99_latency>-infms"; "throughput>=inf";
    ]

(* ------------------------------------------------------------------ *)
(* Burn-rate state machine, on a hand-built series: six 1 s windows with
   one output each, where only windows 1 and 2 miss the 0.5 s deadline. *)

let test_slo_state_machine () =
  let series =
    match
      S.build ~width:1.0 ~nprocs:1 ~horizon:6.0
        ~output_times:[ 0.5; 1.5; 2.5; 3.5; 4.5; 5.5 ]
        ~latencies:[ 0.1; 0.9; 0.9; 0.1; 0.1; 0.1 ]
        ~input_period:0.5 (E.create ())
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let rep = S.Slo.evaluate [ spec_ok "miss_rate<0.5" ] series in
  let m = List.hd rep.S.Slo.monitors in
  Alcotest.(check int) "two failing windows" 2 m.S.Slo.failing_windows;
  Alcotest.(check (float 1e-9)) "burn = width x failing windows" 2.0
    m.S.Slo.total_burn;
  (* one failing window warns, the second violates, the first passing one
     recovers — all stamped at window ends *)
  Alcotest.(check bool) "transition sequence" true
    (m.S.Slo.transitions
    = [
        (2.0, S.Slo.Healthy, S.Slo.Warning);
        (3.0, S.Slo.Warning, S.Slo.Violated);
        (4.0, S.Slo.Violated, S.Slo.Healthy);
      ]);
  Alcotest.(check (option (float 1e-9))) "first violation" (Some 3.0)
    m.S.Slo.first_violation;
  Alcotest.(check (option (float 1e-9))) "recovered at" (Some 4.0)
    m.S.Slo.recovered_at;
  Alcotest.(check (option (float 1e-9))) "time to recovery" (Some 1.0)
    m.S.Slo.time_to_recovery;
  Alcotest.(check bool) "final state healthy" true
    (m.S.Slo.final = S.Slo.Healthy);
  (match m.S.Slo.worst with
  | Some (w, v) ->
      Alcotest.(check int) "worst window is the first of equals" 1 w;
      Alcotest.(check (float 1e-9)) "worst observed value" 1.0 v
  | None -> Alcotest.fail "expected a worst window");
  (* the violation episode spans the failing windows, not the stamps *)
  match S.Slo.bands rep with
  | [ b ] ->
      Alcotest.(check (float 1e-9)) "band opens with window 1" 1.0
        b.Skipper_trace.Svg.band_start;
      Alcotest.(check (float 1e-9)) "band closes with window 2" 3.0
        b.Skipper_trace.Svg.band_finish
  | bs -> Alcotest.fail (Printf.sprintf "expected one band, got %d" (List.length bs))

(* A window with no observation must hold the state, not reset it. *)
let test_slo_gap_holds_state () =
  let series =
    match
      S.build ~width:1.0 ~nprocs:1 ~horizon:5.0
        ~output_times:[ 0.5; 1.5; 4.5 ]
        ~latencies:[ 0.9; 0.9; 0.1 ]
        ~input_period:0.5 (E.create ())
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let m = List.hd (S.Slo.evaluate [ spec_ok "miss_rate<0.5" ] series).S.Slo.monitors in
  Alcotest.(check (option (float 1e-9)))
    "violated on the second failing window" (Some 2.0) m.S.Slo.first_violation;
  (* windows 2 and 3 have no frames: still Violated until window 4 passes *)
  Alcotest.(check (option (float 1e-9))) "recovery waits for an observation"
    (Some 5.0) m.S.Slo.recovered_at

(* The Prometheus text format escapes only backslash, double quote and
   newline in label values. [Slo.parse] trims the spec but keeps [raw], so
   a trailing tab reaches the [slo] label and must be written as itself,
   not as OCaml's [\t] escape. *)
let test_prometheus_slo_label () =
  let series =
    match
      S.build ~width:1.0 ~nprocs:1 ~horizon:2.0 ~output_times:[ 0.5; 1.5 ]
        ~latencies:[ 0.01; 0.01 ] (E.create ())
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let raw = "p99_latency<80ms\t" in
  let prom =
    S.to_prometheus ~slo:(S.Slo.evaluate [ spec_ok raw ] series) series
  in
  let has affix = Astring.String.is_infix ~affix prom in
  Alcotest.(check bool) "state line keeps the raw spec" true
    (has "skipper_slo_state{slo=\"p99_latency<80ms\t\"} 0.000000000\n");
  Alcotest.(check bool) "burn line keeps the raw spec" true
    (has "skipper_slo_burn_seconds{slo=\"p99_latency<80ms\t\"} ");
  Alcotest.(check bool) "no undefined escape" false (has "\\t")

(* Golden bytes of the Prometheus exposition: the tracking spec of §4 on
   ring 8 at 25 Hz for 10 frames, watched by two SLOs, pinned by length and
   MD5. Any changed sample, label, escape or line order fails here. *)
let test_prometheus_golden () =
  let module P = Skipper_lib.Pipeline in
  let config = Tracking.Funcs.default_config in
  let c =
    P.compile_source ~frames:10 ~table:(Tracking.Funcs.table config)
      (Tracking.Funcs.source config)
  in
  let series =
    series_of (P.execute ~trace:true ~input_period:(1.0 /. 25.0) c (Archi.ring 8))
  in
  let slo =
    S.Slo.evaluate
      [ spec_ok "p99_latency<80ms"; spec_ok "throughput >= 20fps" ]
      series
  in
  let prom = S.to_prometheus ~slo series in
  Alcotest.(check (pair int string))
    "Series.to_prometheus bytes"
    (3452, "d75ed7a5c10b752ed1568b4f6d9fc30f")
    (String.length prom, Digest.to_hex (Digest.string prom))

(* ------------------------------------------------------------------ *)
(* Totals: the series is an exact decomposition of the run's counters.  *)

(* A farm, and now and then a halt of one worker's processor with df
   recovery armed, so the reissue and fault counters are not always 0. *)
type case = { p : params; halt : (int * float) option }

let gen_case =
  QCheck.Gen.(
    let* nworkers, nitems, frames =
      tup3 (int_range 1 4) (int_range 1 8) (int_range 1 4)
    in
    let* halt =
      frequency
        [
          (2, return None);
          ( 1,
            (* inside some frame's first 2 ms, while its items are out *)
            map3
              (fun proc frame at -> Some (proc, (0.01 *. float_of_int frame) +. at))
              (int_range 1 nworkers) (int_bound (frames - 1))
              (float_bound_inclusive 2e-3) );
        ]
    in
    return { p = { nworkers; nitems; frames }; halt })

let print_case { p; halt } =
  Printf.sprintf "{workers=%d; items=%d; frames=%d; halt=%s}" p.nworkers p.nitems
    p.frames
    (match halt with
    | None -> "none"
    | Some (proc, at) -> Printf.sprintf "%d@%h" proc at)

let run_case { p; halt } =
  let input_period = if p.frames > 1 then Some 0.01 else None in
  match halt with
  | None -> run_farm ?input_period p
  | Some fault ->
      run_farm ?input_period ~faults:[ fault ]
        ~recovery:(Executive.recovery ~max_strikes:100 5e-3)
        p

let prop_totals_match_run =
  QCheck.Test.make ~name:"window totals sum to the run's own counters"
    ~count:25
    (QCheck.make ~print:print_case gen_case)
    (fun case ->
      let r = run_case case in
      let t = S.totals (series_of r) in
      let busy_total =
        Array.fold_left ( +. ) 0.0 r.Executive.stats.Sim.busy
      in
      t.S.total_frames = List.length r.Executive.output_times
      && t.S.total_messages = r.Executive.stats.Sim.messages
      && t.S.total_reissues = r.Executive.reissues
      && t.S.total_deadline_misses = r.Executive.deadline_misses
      && Float.abs (t.S.total_busy -. busy_total)
         <= 1e-9 *. Float.max 1.0 busy_total)

(* The exposition, parsed back: each family has one [# TYPE] line ahead
   of its samples, histogram buckets are cumulative up to [+Inf] =
   [_count], the counters are the series totals, and [_sum] and every busy
   gauge print the [%.9f] of the window folds, in window order. *)
let prop_prometheus_exposition =
  QCheck.Test.make ~name:"prometheus exposition parses back to the series"
    ~count:25
    (QCheck.make ~print:print_case gen_case)
    (fun case ->
      let r = run_case case in
      let series = series_of r in
      let slo =
        S.Slo.evaluate
          [ spec_ok "p99_latency<8ms"; spec_ok "throughput >= 20fps" ]
          series
      in
      let prom = S.to_prometheus ~slo series in
      let fail fmt = QCheck.Test.fail_reportf ("%s\n" ^^ fmt) prom in
      let kinds = Hashtbl.create 16 in
      let family name =
        if Hashtbl.mem kinds name then name
        else
          match
            List.find_map
              (fun suffix ->
                match Filename.chop_suffix_opt ~suffix name with
                | Some base when Hashtbl.find_opt kinds base = Some "histogram" ->
                    Some base
                | _ -> None)
              [ "_bucket"; "_sum"; "_count" ]
          with
          | Some base -> base
          | None -> fail "sample %s before its # TYPE line" name
      in
      (* samples as (family, name, label text, value text), in order; a
         label value may hold spaces, a value never does *)
      let samples =
        String.split_on_char '\n' prom
        |> List.filter_map (fun line ->
               match String.split_on_char ' ' line with
               | [ "" ] | "#" :: "HELP" :: _ -> None
               | [ "#"; "TYPE"; name; kind ] ->
                   if Hashtbl.mem kinds name then
                     fail "two # TYPE lines for %s" name;
                   Hashtbl.add kinds name kind;
                   None
               | _ ->
                   let sp = String.rindex line ' ' in
                   let key = String.sub line 0 sp in
                   let value =
                     String.sub line (sp + 1) (String.length line - sp - 1)
                   in
                   let name, labels =
                     match String.index_opt key '{' with
                     | Some i ->
                         (String.sub key 0 i, String.sub key i (String.length key - i))
                     | None -> (key, "")
                   in
                   Some (family name, name, labels, value))
      in
      let find name labels =
        match
          List.filter_map
            (fun (_, n, l, v) -> if n = name && l = labels then Some v else None)
            samples
        with
        | [ v ] -> v
        | vs -> fail "%d samples %s%s" (List.length vs) name labels
      in
      let expect name labels want =
        let got = find name labels in
        if got <> want then fail "%s%s = %s, want %s" name labels got want
      in
      Hashtbl.iter
        (fun fam kind ->
          if kind = "histogram" then begin
            let buckets =
              List.filter_map
                (fun (_, n, l, v) ->
                  if n = fam ^ "_bucket" then Some (l, int_of_string v) else None)
                samples
            in
            ignore
              (List.fold_left
                 (fun prev (l, n) ->
                   if n < prev then fail "%s_bucket%s decreases" fam l;
                   n)
                 0 buckets);
            match List.rev buckets with
            | (l, n) :: _ when l = "{le=\"+Inf\"}" ->
                expect (fam ^ "_count") "" (string_of_int n)
            | _ -> fail "%s does not end in +Inf" fam
          end)
        kinds;
      let tot = S.totals series in
      List.iter
        (fun (name, v) -> expect name "" (string_of_int v))
        [
          ("skipper_frames_total", tot.S.total_frames);
          ("skipper_messages_total", tot.S.total_messages);
          ("skipper_reissues_total", tot.S.total_reissues);
          ("skipper_deadline_misses_total", tot.S.total_deadline_misses);
          ("skipper_faults_total", tot.S.total_faults);
        ];
      let windows = Array.to_list series.S.windows in
      let merged =
        List.fold_left (fun acc w -> H.merge acc w.S.latency) (H.create ()) windows
      in
      expect "skipper_frame_latency_seconds_sum" ""
        (Printf.sprintf "%.9f" (H.sum merged));
      for p = 0 to series.S.nprocs - 1 do
        expect "skipper_processor_busy_seconds"
          (Printf.sprintf "{proc=\"%d\"}" p)
          (Printf.sprintf "%.9f"
             (List.fold_left (fun acc w -> acc +. w.S.busy.(p)) 0.0 windows))
      done;
      let links =
        List.fold_left
          (fun acc w ->
            List.fold_left
              (fun acc (k, s) ->
                let cur = Option.value ~default:0.0 (List.assoc_opt k acc) in
                (k, cur +. s) :: List.remove_assoc k acc)
              acc w.S.link_busy)
          [] windows
      in
      List.iter
        (fun ((src, dst), v) ->
          expect "skipper_link_busy_seconds"
            (Printf.sprintf "{src=\"%d\",dst=\"%d\"}" src dst)
            (Printf.sprintf "%.9f" v))
        links;
      let count name =
        List.length (List.filter (fun (f, _, _, _) -> f = name) samples)
      in
      count "skipper_processor_busy_seconds" = series.S.nprocs
      && count "skipper_link_busy_seconds" = List.length links)

(* Pooled builds: the series JSON from domains is byte-identical to the
   sequential one (what the CI --jobs gate on skipperc series files pins). *)
let test_pooled_builds_byte_identical () =
  let p = { nworkers = 3; nitems = 8; frames = 3 } in
  let fingerprint () = S.to_json (series_of (run_farm ~input_period:0.01 p)) in
  let seq = fingerprint () in
  List.iteri
    (fun i json ->
      Alcotest.(check string)
        (Printf.sprintf "pooled copy %d == sequential" i)
        seq json)
    (Dp.run ~jobs:pool_jobs (List.init 3 (fun _ -> fingerprint)))

(* ------------------------------------------------------------------ *)
(* The alerting story end to end: halt a worker mid-run with df recovery
   armed, and the SLO monitor must place the first violation inside the
   fault window and the recovery after the restore.                      *)

let test_fault_window_alerting () =
  let p = { nworkers = 3; nitems = 6; frames = 12 } in
  let input_period = 0.01 in
  let halt_at = 0.03 and restore_at = 0.08 in
  (* calibrate the threshold off the healthy run so the test tracks cost
     model changes: healthy latencies pass at 1.5x their max, fault-window
     latencies carry at least one 5 ms reissue timeout on top *)
  let healthy = run_farm ~input_period p in
  let hmax =
    List.fold_left Float.max 0.0 healthy.Executive.latencies
  in
  let spec =
    spec_ok (Printf.sprintf "p99_latency<%.6fms" (hmax *. 1.5 *. 1e3))
  in
  Alcotest.(check int) "healthy run never violates" 0
    (List.hd (S.Slo.evaluate [ spec ] (series_of healthy)).S.Slo.monitors)
      .S.Slo.failing_windows;
  let r =
    run_farm ~input_period
      ~faults:[ (1, halt_at) ]
      ~restores:[ (1, restore_at) ]
      ~recovery:(Executive.recovery ~max_strikes:100 5e-3)
      p
  in
  Alcotest.(check bool) "degraded run still completes" true
    (r.Executive.outcome = Executive.Completed);
  Alcotest.(check bool) "recovery reissued work" true (r.Executive.reissues > 0);
  let m =
    List.hd (S.Slo.evaluate [ spec ] (series_of r)).S.Slo.monitors
  in
  match (m.S.Slo.first_violation, m.S.Slo.recovered_at, m.S.Slo.time_to_recovery) with
  | Some fv, Some rec_at, Some ttr ->
      Alcotest.(check bool) "first violation after the halt" true (fv >= halt_at);
      Alcotest.(check bool) "first violation inside the fault window" true
        (fv <= restore_at +. input_period);
      Alcotest.(check bool) "recovery after the restore" true
        (rec_at >= restore_at);
      Alcotest.(check (float 1e-9)) "time to recovery is the difference"
        (rec_at -. fv) ttr;
      Alcotest.(check bool) "healthy again by end of run" true
        (m.S.Slo.final = S.Slo.Healthy)
  | _ ->
      Alcotest.fail
        (Printf.sprintf
           "expected violation and recovery, got first=%s recovered=%s"
           (match m.S.Slo.first_violation with
           | Some t -> Printf.sprintf "%.4f" t
           | None -> "none")
           (match m.S.Slo.recovered_at with
           | Some t -> Printf.sprintf "%.4f" t
           | None -> "none"))

(* ------------------------------------------------------------------ *)
(* Guard rails                                                         *)

let test_untraced_run_is_an_error () =
  let r = run_farm ~trace:false { nworkers = 2; nitems = 4; frames = 1 } in
  match Executive.series r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "series without tracing must be an error"

let test_bad_build_args () =
  (match S.build ~width:0.0 ~nprocs:1 (E.create ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero width must be rejected");
  match
    S.build ~width:1.0 ~nprocs:1 ~output_times:[ 1.0 ] ~latencies:[]
      (E.create ())
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unpaired outputs/latencies must be rejected"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "series"
    [
      ( "hist",
        [ Alcotest.test_case "log-bucketed histogram" `Quick test_hist ] );
      ( "slo",
        [
          Alcotest.test_case "spec parsing" `Quick test_slo_parse;
          Alcotest.test_case "burn-rate state machine" `Quick
            test_slo_state_machine;
          Alcotest.test_case "gaps hold state" `Quick test_slo_gap_holds_state;
          Alcotest.test_case "fault-window alerting" `Quick
            test_fault_window_alerting;
          Alcotest.test_case "prometheus slo label" `Quick
            test_prometheus_slo_label;
          Alcotest.test_case "prometheus golden bytes" `Quick
            test_prometheus_golden;
        ] );
      ( "totals",
        [
          QCheck_alcotest.to_alcotest prop_totals_match_run;
          QCheck_alcotest.to_alcotest prop_prometheus_exposition;
          Alcotest.test_case "pooled builds are byte-identical" `Quick
            test_pooled_builds_byte_identical;
        ] );
      ( "guards",
        [
          Alcotest.test_case "untraced run" `Quick test_untraced_run_is_an_error;
          Alcotest.test_case "bad build args" `Quick test_bad_build_args;
        ] );
    ]
