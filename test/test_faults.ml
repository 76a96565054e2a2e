(* Tests for the fault-injection plan and the fault-tolerant executive:
   processor halt/restore semantics, per-link message faults, degraded-run
   accounting, and the df farm's timeout/reissue recovery against the
   sequential emulation. *)

module Sim = Machine.Sim
module Proc = Machine.Proc
module V = Skel.Value
module Ir = Skel.Ir

let value_testable = Alcotest.testable V.pp V.equal

(* Same easy numbers as test_machine: 1 us cycles, 1 MB/s links, 1 ms
   startup. *)
let toy_arch n = Archi.ring ~cycle_time:1e-6 ~bandwidth:1e6 ~startup:1e-3 n

(* ------------------------------------------------------------------ *)
(* Halt / restore semantics                                            *)

let test_halt_drops_messages () =
  (* A message delivered to a halted processor is lost and counted. *)
  let sim = Sim.create (toy_arch 2) in
  let got = ref [] in
  let rx =
    Sim.spawn sim ~name:"rx" ~on:1 (fun () ->
        let v = Proc.recv "in" in
        got := V.to_int v :: !got)
  in
  let _ =
    Sim.spawn sim ~name:"tx" ~on:0 (fun () -> Proc.send rx "in" (V.Int 7))
  in
  Sim.halt_processor sim ~at:0.0 1;
  let _ = Sim.run sim in
  Alcotest.(check (list int)) "nothing received" [] !got;
  Alcotest.(check int) "dropped counted in stats" 1
    (Sim.stats sim).Sim.dropped_msgs;
  Alcotest.(check int) "dropped counted in tally" 1
    (Sim.fault_tally sim).Sim.dropped;
  let rx_acct = List.find (fun a -> a.Sim.aname = "rx") (Sim.accounts sim) in
  Alcotest.(check bool) "rx marked halted" true rx_acct.Sim.halted;
  Alcotest.(check bool) "rx did not finish" false rx_acct.Sim.finished

let test_restore_resumes_delivery () =
  (* Messages lost while halted stay lost; messages arriving after the
     restore are delivered normally. *)
  let sim = Sim.create (toy_arch 2) in
  let got = ref [] in
  let rx =
    Sim.spawn sim ~name:"rx" ~on:1 (fun () ->
        got := V.to_int (Proc.recv "in") :: !got)
  in
  Sim.halt_processor sim ~at:1e-3 1;
  Sim.restore_processor sim ~at:3e-3 1;
  Sim.inject sim ~at:2e-3 rx "in" (V.Int 1);
  (* dropped: halted *)
  Sim.inject sim ~at:4e-3 rx "in" (V.Int 2);
  let _ = Sim.run sim in
  Alcotest.(check (list int)) "only the post-restore message" [ 2 ] !got;
  Alcotest.(check int) "one drop" 1 (Sim.stats sim).Sim.dropped_msgs

let test_halt_trace_events () =
  (* Halt and the halt-induced drop appear as trace events on the halted
     processor's lane, in both the Chrome and SVG exports. *)
  let sim = Sim.create ~trace:true (toy_arch 2) in
  let rx =
    Sim.spawn sim ~name:"rx" ~on:1 (fun () -> ignore (Proc.recv "in"))
  in
  let _ =
    Sim.spawn sim ~name:"tx" ~on:0 (fun () -> Proc.send rx "in" (V.Int 1))
  in
  Sim.halt_processor sim ~at:0.0 1;
  let _ = Sim.run sim in
  let module E = Skipper_trace.Event in
  let tl = Sim.timeline sim in
  (* processor-level fault instants sit on the processor's cpu lane *)
  let faults_on p =
    List.filter
      (fun (e : E.t) ->
        e.E.cat = "fault" && e.E.kind = E.Instant && e.E.lane = E.cpu_lane p)
      (E.events tl)
  in
  let halted_on p =
    List.exists (fun (e : E.t) -> e.E.name = "halted") (faults_on p)
  in
  Alcotest.(check bool) "Halted recorded on P1" true (halted_on 1);
  Alcotest.(check bool) "no Halted on P0" false (halted_on 0);
  Alcotest.(check bool) "drop recorded as a Fault event" true
    (List.exists
       (fun (e : E.t) ->
         e.E.name <> "halted"
         && List.mem_assoc "msg" e.E.args
         && Astring.String.is_infix ~affix:"halted" e.E.name)
       (faults_on 1));
  let json = Skipper_trace.Chrome.to_json tl in
  Alcotest.(check bool) "Chrome export names the halt" true
    (Astring.String.is_infix ~affix:"halted" json);
  Alcotest.(check bool) "Chrome export carries the fault category" true
    (Astring.String.is_infix ~affix:"\"fault\"" json);
  match Skipper_trace.Svg.gantt tl with
  | Error msg -> Alcotest.fail msg
  | Ok svg ->
      Alcotest.(check bool) "SVG marks faults in the fault colour" true
        (Astring.String.is_infix ~affix:"#e15759" svg)

let test_halted_accounting_clamped () =
  (* A process blocked on a halted processor accrues blocked time only up
     to the halt instant, and live time excludes the dead tail. *)
  let sim = Sim.create (toy_arch 2) in
  let _ =
    Sim.spawn sim ~name:"rx" ~on:1 (fun () -> ignore (Proc.recv "never"))
  in
  let _ =
    Sim.spawn sim ~name:"worker" ~on:0 (fun () -> Proc.compute 10_000.0)
  in
  Sim.halt_processor sim ~at:2e-3 1;
  let finish = Sim.run sim in
  Alcotest.(check (float 1e-9)) "run ends with the worker" 1e-2 finish;
  let rx_acct = List.find (fun a -> a.Sim.aname = "rx") (Sim.accounts sim) in
  Alcotest.(check bool) "halted flag" true rx_acct.Sim.halted;
  Alcotest.(check (float 1e-9)) "blocked clamps at the halt" 2e-3
    rx_acct.Sim.blocked_s;
  let live = Sim.live_times sim in
  Alcotest.(check (float 1e-9)) "P0 lives the whole run" 1e-2 live.(0);
  Alcotest.(check (float 1e-9)) "P1 lives until the halt" 2e-3 live.(1);
  (* utilisation is measured against live time: P0 busy 10ms of 10ms, P1
     busy 0 of 2ms -> 10/12, not 10/20. *)
  Alcotest.(check (float 1e-6)) "utilisation over live time" (1e-2 /. 1.2e-2)
    (Sim.utilisation sim)

(* ------------------------------------------------------------------ *)
(* Link faults                                                         *)

(* tx on P0 streams [n] ints to rx on P1; returns what rx saw, in order. *)
let stream_run ?(n = 5) faults =
  let sim = Sim.create (toy_arch 2) in
  let got = ref [] in
  let rx =
    Sim.spawn sim ~name:"rx" ~on:1 (fun () ->
        let rec loop () =
          match Proc.recv_deadline [ "in" ] ~deadline:(Proc.now () +. 0.1) with
          | Some (_, v) ->
              got := V.to_int v :: !got;
              loop ()
          | None -> ()
        in
        loop ())
  in
  let _ =
    Sim.spawn sim ~name:"tx" ~on:0 (fun () ->
        for i = 1 to n do
          Proc.send rx "in" (V.Int i)
        done)
  in
  List.iter (Sim.add_fault sim) faults;
  let _ = Sim.run sim in
  (sim, List.rev !got)

let test_drop_nth () =
  let sim, got =
    stream_run [ Sim.link_fault ~schedule:(Sim.Nth 2) Sim.Drop ]
  in
  Alcotest.(check (list int)) "2nd delivery lost" [ 1; 3; 4; 5 ] got;
  Alcotest.(check int) "tally" 1 (Sim.fault_tally sim).Sim.dropped

let test_drop_every () =
  let sim, got =
    stream_run ~n:6 [ Sim.link_fault ~schedule:(Sim.Every 3) Sim.Drop ]
  in
  Alcotest.(check (list int)) "every 3rd lost" [ 1; 2; 4; 5 ] got;
  Alcotest.(check int) "tally" 2 (Sim.fault_tally sim).Sim.dropped

let test_drop_specific_link_only () =
  (* A fault armed on the reverse link never fires on this traffic. *)
  let sim, got = stream_run [ Sim.link_fault ~link:(1, 0) Sim.Drop ] in
  Alcotest.(check (list int)) "unaffected" [ 1; 2; 3; 4; 5 ] got;
  Alcotest.(check int) "no drops" 0 (Sim.fault_tally sim).Sim.dropped;
  let sim2, got2 = stream_run [ Sim.link_fault ~link:(0, 1) Sim.Drop ] in
  Alcotest.(check (list int)) "all lost on the armed link" [] got2;
  Alcotest.(check int) "all counted" 5 (Sim.fault_tally sim2).Sim.dropped

let test_duplicate_delivers_twice () =
  let sim, got =
    stream_run ~n:2 [ Sim.link_fault ~schedule:(Sim.Nth 1) Sim.Duplicate ]
  in
  Alcotest.(check (list int)) "first message doubled" [ 1; 1; 2 ] got;
  Alcotest.(check int) "tally" 1 (Sim.fault_tally sim).Sim.duplicated

let test_delay_postpones () =
  let dt = 0.02 in
  let sim = Sim.create (toy_arch 2) in
  let arrived = ref 0.0 in
  let rx =
    Sim.spawn sim ~name:"rx" ~on:1 (fun () ->
        ignore (Proc.recv "in");
        arrived := Proc.now ())
  in
  let _ =
    Sim.spawn sim ~name:"tx" ~on:0 (fun () -> Proc.send rx "in" (V.Int 1))
  in
  Sim.add_fault sim (Sim.link_fault (Sim.Delay dt));
  let _ = Sim.run sim in
  Alcotest.(check bool) "arrival pushed past the injected delay" true
    (!arrived >= dt);
  Alcotest.(check int) "tally" 1 (Sim.fault_tally sim).Sim.delayed

let test_prob_deterministic () =
  (* Same seed, same traffic -> identical drop pattern; the extremes are
     exact. *)
  let drops seed p =
    let sim, got =
      stream_run ~n:20 [ Sim.link_fault ~schedule:(Sim.Prob (p, seed)) Sim.Drop ]
    in
    ((Sim.fault_tally sim).Sim.dropped, got)
  in
  Alcotest.(check (pair int (list int)))
    "replayable" (drops 42 0.5) (drops 42 0.5);
  Alcotest.(check int) "p=0 drops nothing" 0 (fst (drops 7 0.0));
  Alcotest.(check int) "p=1 drops everything" 20 (fst (drops 7 1.0))

let test_injections_and_local_copies_exempt () =
  (* Environment injections and same-processor sends are not remote-link
     traffic: an any-link Drop must leave them alone. *)
  let sim = Sim.create (toy_arch 2) in
  let got = ref [] in
  let rx =
    Sim.spawn sim ~name:"rx" ~on:0 (fun () ->
        for _ = 1 to 2 do
          got := V.to_int (Proc.recv "in") :: !got
        done)
  in
  let _ =
    Sim.spawn sim ~name:"tx" ~on:0 (fun () -> Proc.send rx "in" (V.Int 2))
  in
  Sim.add_fault sim (Sim.link_fault Sim.Drop);
  Sim.inject sim rx "in" (V.Int 1);
  let _ = Sim.run sim in
  Alcotest.(check int) "both delivered" 2 (List.length !got);
  Alcotest.(check int) "no drops" 0 (Sim.fault_tally sim).Sim.dropped

let test_recv_deadline_timeout () =
  let sim = Sim.create (toy_arch 2) in
  let first = ref (Some ("x", V.Unit)) and second = ref None in
  let rx =
    Sim.spawn sim ~name:"rx" ~on:1 (fun () ->
        first := Proc.recv_deadline [ "in" ] ~deadline:2e-3;
        second := Proc.recv_deadline [ "in" ] ~deadline:1.0)
  in
  Sim.inject sim ~at:5e-3 rx "in" (V.Int 9);
  let _ = Sim.run sim in
  Alcotest.(check bool) "first wait times out" true (!first = None);
  (match !second with
  | Some ("in", v) -> Alcotest.(check value_testable) "then delivers" (V.Int 9) v
  | _ -> Alcotest.fail "expected the late message")

(* A deadline wait satisfied early leaves its timer pending; when it fires
   during a later plain receive, it must not wake that receive. *)
let test_stale_deadline_ignored () =
  let sim = Sim.create (toy_arch 2) in
  let first = ref None and second = ref V.Unit in
  let rx =
    Sim.spawn sim ~name:"rx" ~on:1 (fun () ->
        first := Proc.recv_deadline [ "in" ] ~deadline:5e-3;
        second := Proc.recv "in")
  in
  Sim.inject sim ~at:1e-3 rx "in" (V.Int 1);
  Sim.inject sim ~at:8e-3 rx "in" (V.Int 2);
  let _ = Sim.run sim in
  (match !first with
  | Some ("in", v) -> Alcotest.(check value_testable) "deadline wait" (V.Int 1) v
  | _ -> Alcotest.fail "expected the early message");
  Alcotest.(check value_testable) "plain recv waits past the old deadline"
    (V.Int 2) !second

(* ------------------------------------------------------------------ *)
(* Degraded-run metrics                                                *)

let test_degraded_metrics () =
  let sim = Sim.create (toy_arch 2) in
  let _ = Sim.spawn sim ~name:"a" ~on:0 (fun () -> Proc.compute 10_000.0) in
  let _ = Sim.spawn sim ~name:"b" ~on:1 (fun () -> ignore (Proc.recv "never")) in
  Sim.halt_processor sim ~at:2e-3 1;
  let _ = Sim.run sim in
  let report = Machine.Metrics.analyse ~deadline_misses:1 ~reissues:2 sim in
  let p1 = List.nth report.Machine.Metrics.loads 1 in
  Alcotest.(check (float 1e-9)) "live excludes the dead tail" 2e-3
    p1.Machine.Metrics.live;
  Alcotest.(check int) "counters threaded" 2 report.Machine.Metrics.reissues;
  Alcotest.(check int) "misses threaded" 1
    report.Machine.Metrics.deadline_misses;
  Alcotest.(check bool) "imbalance stays finite" true
    (Float.is_finite (Machine.Metrics.imbalance report));
  Alcotest.(check bool) "report renders the fault line" true
    (Astring.String.is_infix ~affix:"reissued"
       (Machine.Metrics.to_string report))

(* ------------------------------------------------------------------ *)
(* Fault-tolerant data farming                                         *)

let ft_table () =
  Skel.Funtable.of_list
    [
      ("sq", 1, (fun v -> V.Int (V.to_int v * V.to_int v)), fun _ -> 5000.0);
      ( "add",
        2,
        (fun v ->
          let a, b = V.to_pair v in
          V.Int (V.to_int a + V.to_int b)),
        fun _ -> 500.0 );
    ]

let df_program nworkers =
  Ir.program "df"
    (Ir.Df { nworkers; comp = "sq"; acc = "add"; init = V.Int 0; state = Ir.Stateless })

(* Run the farm on a ring with one processor per worker plus the master,
   under canonical placement (worker i lives on P(i+1)). *)
let df_run ?(frames = 1) ?faults ?restores ?link_faults ?recovery ~nworkers
    items =
  let table = ft_table () in
  let program = df_program nworkers in
  let g = Procnet.Expand.expand table program in
  let arch = Archi.ring (nworkers + 1) in
  let placement = Syndex.Place.canonical g arch in
  let input = V.List (List.map (fun i -> V.Int i) items) in
  let r =
    Executive.run ?faults ?restores ?link_faults ?recovery ~table ~arch
      ~placement ~graph:g ~frames ~input ()
  in
  (Skel.Sem.run table program input, r)

let healthy_latency ~nworkers items =
  let _, r = df_run ~nworkers items in
  r.Executive.first_latency

let test_df_recovers_from_worker_halt () =
  let items = List.init 20 (fun i -> i) in
  let nworkers = 3 in
  let timeout = healthy_latency ~nworkers items in
  let seq, r =
    df_run ~nworkers ~faults:[ (2, timeout /. 4.0) ]
      ~recovery:(Executive.recovery ~max_strikes:1 timeout) items
  in
  Alcotest.(check bool) "completed degraded" true
    (r.Executive.outcome = Executive.Completed);
  Alcotest.(check value_testable) "agrees with the emulation" seq
    r.Executive.value;
  Alcotest.(check bool) "tasks were reissued" true (r.Executive.reissues > 0);
  Alcotest.(check int) "the dead worker was retired" 1
    r.Executive.retired_workers

let test_df_survives_halt_mid_stream () =
  (* Multi-frame run: the halt lands mid-stream and every later frame must
     still come out right. *)
  let items = List.init 12 (fun i -> i) in
  let nworkers = 3 in
  let timeout = healthy_latency ~nworkers items in
  let seq, r =
    df_run ~frames:4 ~nworkers
      ~faults:[ (2, 1.5 *. timeout) ]
      ~recovery:(Executive.recovery timeout) items
  in
  Alcotest.(check bool) "completed" true
    (r.Executive.outcome = Executive.Completed);
  Alcotest.(check int) "all frames out" 4 (List.length r.Executive.outputs);
  List.iter
    (fun out -> Alcotest.(check value_testable) "each frame agrees" seq out)
    r.Executive.outputs

let test_df_recovery_absorbs_duplicates () =
  let items = List.init 15 (fun i -> i) in
  let nworkers = 3 in
  let timeout = healthy_latency ~nworkers items in
  let seq, r =
    df_run ~nworkers
      ~link_faults:[ Sim.link_fault ~schedule:(Sim.Every 2) Sim.Duplicate ]
      ~recovery:(Executive.recovery timeout) items
  in
  Alcotest.(check bool) "completed" true
    (r.Executive.outcome = Executive.Completed);
  Alcotest.(check value_testable) "duplicates folded once" seq
    r.Executive.value

let prop_df_single_fault_recovery =
  (* Any single message fault or worker halt, with recovery on, leaves the
     farm's answer equal to the sequential emulation. *)
  QCheck.Test.make ~name:"df with one fault + recovery == emulation" ~count:30
    QCheck.(
      pair
        (pair (int_range 2 4) (list_of_size Gen.(2 -- 20) (int_range 0 50)))
        (int_range 0 3))
    (fun ((nworkers, items), kind) ->
      QCheck.assume (items <> []);
      let timeout = healthy_latency ~nworkers items in
      let faults, link_faults =
        match kind with
        | 0 -> ([ (2, timeout /. 3.0) ], []) (* kill worker 1's processor *)
        | 1 -> ([], [ Sim.link_fault ~schedule:(Sim.Nth 2) Sim.Drop ])
        | 2 -> ([], [ Sim.link_fault ~schedule:(Sim.Nth 1) (Sim.Delay timeout) ])
        | _ -> ([], [ Sim.link_fault ~schedule:(Sim.Every 3) Sim.Duplicate ])
      in
      let seq, r =
        df_run ~nworkers ~faults ~link_faults
          ~recovery:(Executive.recovery timeout) items
      in
      r.Executive.outcome = Executive.Completed
      && V.equal seq r.Executive.value)

let prop_df_halt_without_recovery_never_raises =
  (* Recovery off: a worker halt may stall the farm but must never raise;
     a stall carries consistent partial counts. *)
  QCheck.Test.make ~name:"df halt without recovery stalls gracefully" ~count:30
    QCheck.(
      pair (int_range 2 4) (list_of_size Gen.(2 -- 20) (int_range 0 50)))
    (fun (nworkers, items) ->
      QCheck.assume (items <> []);
      let _, r = df_run ~nworkers ~faults:[ (2, 1e-4) ] items in
      match r.Executive.outcome with
      | Executive.Completed -> List.length r.Executive.outputs = 1
      | Executive.Stalled { collected; expected } ->
          expected = 1
          && collected = List.length r.Executive.outputs
          && collected < expected)

(* ------------------------------------------------------------------ *)
(* Master checkpoint / replay                                          *)

(* An accumulator farm whose carry crosses frames: the master is the sole
   holder of the fold state, so a halt of its processor is the worst-case
   fault — without checkpointing the stream dies with it, with
   checkpointing the restarted master replays from the last stable
   snapshot. The sum-based acc makes any double-counted contribution (a
   replayed reply folded twice) show up as a wrong value against the
   sequential oracle. *)
let acc_program ~frames nworkers =
  Ir.program ~frames "df_acc"
    (Ir.Df
       { nworkers; comp = "sq"; acc = "add"; init = V.Int 0; state = Ir.Accumulator })

let acc_run ?faults ?restores ?checkpoint_every ~frames ~nworkers items =
  let table = ft_table () in
  let program = acc_program ~frames nworkers in
  let g = Procnet.Expand.expand table program in
  let arch = Archi.ring (nworkers + 1) in
  let placement = Syndex.Place.canonical g arch in
  let input = V.List (List.map (fun i -> V.Int i) items) in
  let r =
    Executive.run ?faults ?restores ?checkpoint_every ~table ~arch ~placement
      ~graph:g ~frames ~input ()
  in
  (Skel.Sem.run table program input, r)

let test_master_halt_stalls_without_checkpoint () =
  let items = List.init 12 (fun i -> i) in
  let nworkers = 3 and frames = 4 in
  let _, healthy = acc_run ~frames ~nworkers items in
  let times = Array.of_list healthy.Executive.output_times in
  (* halt the master's processor (P0 under canonical placement) between
     the second and third frame outputs; restoring the processor does not
     revive the non-durable master *)
  let halt_at = (times.(1) +. times.(2)) /. 2.0 in
  let _, r =
    acc_run ~frames ~nworkers
      ~faults:[ (0, halt_at) ]
      ~restores:[ (0, 2.0 *. halt_at) ]
      items
  in
  (match r.Executive.outcome with
  | Executive.Stalled { collected; expected } ->
      Alcotest.(check int) "expected the full stream" frames expected;
      Alcotest.(check bool) "a strict prefix came out" true
        (collected >= 1 && collected < frames);
      Alcotest.(check int) "outputs match the count" collected
        (List.length r.Executive.outputs)
  | Executive.Completed ->
      Alcotest.fail "master halt without checkpointing must stall");
  Alcotest.(check int) "no checkpoints were taken" 0 r.Executive.checkpoints

let test_master_checkpoint_replay_completes () =
  let items = List.init 12 (fun i -> i) in
  let nworkers = 3 and frames = 4 in
  let _, healthy = acc_run ~frames ~nworkers ~checkpoint_every:2 items in
  let times = Array.of_list healthy.Executive.output_times in
  (* Halt while frame 3 is in flight: the last stable snapshot covers
     frames 0-1 and frame 2 is already emitted, so the restarted master
     must recompute frame 2 (without re-emitting it — the write-ahead
     emitted count) before finishing the stream. *)
  let halt_at = (times.(2) +. times.(3)) /. 2.0 in
  let oracle, r =
    acc_run ~frames ~nworkers ~checkpoint_every:2
      ~faults:[ (0, halt_at) ]
      ~restores:[ (0, 2.0 *. halt_at) ]
      items
  in
  Alcotest.(check bool) "completed despite the master outage" true
    (r.Executive.outcome = Executive.Completed);
  Alcotest.(check value_testable) "no contribution double-counted" oracle
    r.Executive.value;
  (* every frame of the degraded run equals the streamed oracle *)
  let stream =
    Skel.Sem.run_stream (ft_table ())
      (acc_program ~frames nworkers)
      (V.List (List.map (fun i -> V.Int i) items))
  in
  Alcotest.(check (list value_testable)) "per-frame outputs" stream
    r.Executive.outputs;
  Alcotest.(check bool) "checkpoints were taken" true
    (r.Executive.checkpoints >= 2);
  Alcotest.(check int) "frame 2 replayed, not re-emitted" 1
    r.Executive.replayed_frames;
  Alcotest.(check int) "replay is not a reissue" 0 r.Executive.reissues

let test_master_checkpoint_no_fault_is_free () =
  (* Checkpointing without a fault changes nothing observable except the
     checkpoint count: same value, same per-frame outputs. *)
  let items = List.init 10 (fun i -> i) in
  let nworkers = 2 and frames = 4 in
  let oracle, plain = acc_run ~frames ~nworkers items in
  let _, ckpt = acc_run ~frames ~nworkers ~checkpoint_every:1 items in
  Alcotest.(check value_testable) "same value" oracle ckpt.Executive.value;
  Alcotest.(check (list value_testable)) "same outputs"
    plain.Executive.outputs ckpt.Executive.outputs;
  Alcotest.(check int) "one checkpoint per frame" frames
    ckpt.Executive.checkpoints;
  Alcotest.(check int) "nothing replayed" 0 ckpt.Executive.replayed_frames

let test_single_frame_period_is_none () =
  let _, r = df_run ~nworkers:2 [ 1; 2; 3 ] in
  Alcotest.(check bool) "one frame has no period" true
    (r.Executive.period = None);
  let _, r4 = df_run ~frames:4 ~nworkers:2 [ 1; 2; 3 ] in
  Alcotest.(check bool) "four frames do" true (r4.Executive.period <> None)

let () =
  Alcotest.run "faults"
    [
      ( "halt",
        [
          Alcotest.test_case "drops messages" `Quick test_halt_drops_messages;
          Alcotest.test_case "restore resumes delivery" `Quick
            test_restore_resumes_delivery;
          Alcotest.test_case "trace events" `Quick test_halt_trace_events;
          Alcotest.test_case "accounting clamped" `Quick
            test_halted_accounting_clamped;
        ] );
      ( "link faults",
        [
          Alcotest.test_case "drop nth" `Quick test_drop_nth;
          Alcotest.test_case "drop every" `Quick test_drop_every;
          Alcotest.test_case "link selectivity" `Quick
            test_drop_specific_link_only;
          Alcotest.test_case "duplicate" `Quick test_duplicate_delivers_twice;
          Alcotest.test_case "delay" `Quick test_delay_postpones;
          Alcotest.test_case "prob deterministic" `Quick test_prob_deterministic;
          Alcotest.test_case "injections exempt" `Quick
            test_injections_and_local_copies_exempt;
          Alcotest.test_case "recv deadline" `Quick test_recv_deadline_timeout;
          Alcotest.test_case "stale deadline ignored" `Quick
            test_stale_deadline_ignored;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "degraded run" `Quick test_degraded_metrics;
          Alcotest.test_case "single-frame period" `Quick
            test_single_frame_period_is_none;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "worker halt" `Quick
            test_df_recovers_from_worker_halt;
          Alcotest.test_case "halt mid-stream" `Quick
            test_df_survives_halt_mid_stream;
          Alcotest.test_case "absorbs duplicates" `Quick
            test_df_recovery_absorbs_duplicates;
          QCheck_alcotest.to_alcotest prop_df_single_fault_recovery;
          QCheck_alcotest.to_alcotest prop_df_halt_without_recovery_never_raises;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "master halt stalls without checkpoint" `Quick
            test_master_halt_stalls_without_checkpoint;
          Alcotest.test_case "checkpoint + replay completes" `Quick
            test_master_checkpoint_replay_completes;
          Alcotest.test_case "checkpointing alone is free" `Quick
            test_master_checkpoint_no_fault_is_free;
        ] );
    ]
