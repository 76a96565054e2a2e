(* Tests for the SynDEx-style mapper: DAG derivation, HEFT scheduling,
   fixed placements, schedule validation and deadlock freedom. *)

module G = Procnet.Graph
module V = Skel.Value

let tracking_like_graph ?(nworkers = 4) () =
  Procnet.Expand.expand_stage
    (Skel.Ir.Itermem
       {
         input = "in";
         loop =
           Skel.Ir.Pipe
             [
               Skel.Ir.Seq "pre";
               Skel.Ir.Df { nworkers; comp = "c"; acc = "a"; init = V.Int 0; state = Skel.Ir.Stateless };
               Skel.Ir.Seq "post";
             ];
         output = "out";
         init = V.Int 0;
       })

let cost = Syndex.Cost.make ()

let test_dag_splits_masters_and_mem () =
  let g = tracking_like_graph () in
  let dag = Syndex.Dag.of_graph cost g in
  let parts =
    Array.to_list dag.Syndex.Dag.ops |> List.map (fun op -> op.Syndex.Dag.part)
  in
  let count p = List.length (List.filter (( = ) p) parts) in
  Alcotest.(check int) "one dispatch" 1 (count Syndex.Dag.Dispatch);
  Alcotest.(check int) "one collect" 1 (count Syndex.Dag.Collect);
  Alcotest.(check int) "one emit" 1 (count Syndex.Dag.Emit);
  Alcotest.(check int) "one store" 1 (count Syndex.Dag.Store);
  Alcotest.(check int) "colocation pairs" 2 (List.length dag.Syndex.Dag.colocated)

let test_dag_topological_order () =
  let g = tracking_like_graph () in
  let dag = Syndex.Dag.of_graph cost g in
  let order = Syndex.Dag.topological_order dag in
  Alcotest.(check int) "covers all ops" (Array.length dag.Syndex.Dag.ops)
    (List.length order);
  (* position map respects every dependency *)
  let pos = Hashtbl.create 16 in
  List.iteri (fun i op -> Hashtbl.replace pos op i) order;
  List.iter
    (fun (d : Syndex.Dag.dep) ->
      Alcotest.(check bool) "edge forward" true
        (Hashtbl.find pos d.Syndex.Dag.src_op < Hashtbl.find pos d.Syndex.Dag.dst_op))
    dag.Syndex.Dag.deps

let test_heft_schedule_validates () =
  let g = tracking_like_graph () in
  List.iter
    (fun arch ->
      let s = Syndex.Heft.map cost arch g in
      (match Syndex.Schedule.validate s with
      | Ok () -> ()
      | Error m -> Alcotest.failf "invalid schedule on %s: %s" (Archi.name arch) m);
      Alcotest.(check bool)
        (Printf.sprintf "deadlock-free on %s" (Archi.name arch))
        true (Syndex.Schedule.deadlock_free s);
      Alcotest.(check bool) "positive makespan" true (s.Syndex.Schedule.makespan > 0.0))
    [ Archi.ring 1; Archi.ring 4; Archi.ring 8; Archi.star 5; Archi.grid 2 3;
      Archi.fully_connected 6 ]

let test_heft_colocation_respected () =
  let g = tracking_like_graph () in
  let s = Syndex.Heft.map cost (Archi.ring 6) g in
  (* all ops of a node share its placed processor (validate checks this,
     but assert directly for masters). *)
  List.iter
    (fun (op : Syndex.Schedule.op_slot) ->
      Alcotest.(check int) "op on placed proc"
        s.Syndex.Schedule.placement.(op.Syndex.Schedule.node)
        op.Syndex.Schedule.proc)
    s.Syndex.Schedule.ops

let test_canonical_placement () =
  let g = tracking_like_graph ~nworkers:4 () in
  let arch = Archi.ring 5 in
  let placement = Syndex.Place.canonical g arch in
  Array.iter
    (fun (nd : G.node) ->
      match nd.G.kind with
      | G.DfWorker _ ->
          Alcotest.(check bool) "worker spread" true (placement.(nd.G.id) >= 0)
      | G.DfMaster _ | G.Mem _ | G.Join | G.Fork | G.Input _ | G.Output _ ->
          Alcotest.(check int) "control on P0" 0 placement.(nd.G.id)
      | _ -> ())
    (G.nodes g);
  (* the four workers land on P1..P4, one each *)
  let worker_procs =
    Array.to_list (G.nodes g)
    |> List.filter_map (fun (nd : G.node) ->
           match nd.G.kind with G.DfWorker _ -> Some placement.(nd.G.id) | _ -> None)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "fig-1 layout" [ 1; 2; 3; 4 ] worker_procs

let test_of_placement_validates () =
  let g = tracking_like_graph () in
  let arch = Archi.ring 5 in
  List.iter
    (fun placement ->
      let s = Syndex.Place.of_placement cost arch g placement in
      (match Syndex.Schedule.validate s with
      | Ok () -> ()
      | Error m -> Alcotest.failf "invalid: %s" m);
      Alcotest.(check bool) "deadlock-free" true (Syndex.Schedule.deadlock_free s))
    [ Syndex.Place.canonical g arch; Syndex.Place.round_robin g arch ]

let test_of_placement_rejects_bad_input () =
  let g = tracking_like_graph () in
  let arch = Archi.ring 3 in
  Alcotest.(check bool) "wrong length" true
    (try ignore (Syndex.Place.of_placement cost arch g [| 0 |]); false
     with Invalid_argument _ -> true);
  let p = Array.make (G.nnodes g) 99 in
  Alcotest.(check bool) "missing processor" true
    (try ignore (Syndex.Place.of_placement cost arch g p); false
     with Invalid_argument _ -> true)

let test_single_processor_has_no_comms () =
  let g = tracking_like_graph () in
  let s = Syndex.Heft.map cost (Archi.ring 1) g in
  Alcotest.(check int) "no communications" 0 (List.length s.Syndex.Schedule.comms)

let test_heft_beats_or_matches_single_proc () =
  (* With parallel work available, more processors should not predict a
     (much) longer makespan than one processor. *)
  let fn_cycles name = if name = "c" then Some 200_000.0 else None in
  let heavy = Syndex.Cost.make ~fn_cycles () in
  let g = tracking_like_graph ~nworkers:6 () in
  let m1 = (Syndex.Heft.map heavy (Archi.ring 1) g).Syndex.Schedule.makespan in
  let m8 = (Syndex.Heft.map heavy (Archi.ring 8) g).Syndex.Schedule.makespan in
  Alcotest.(check bool) "parallel is predicted faster" true (m8 < m1)

let test_link_orders_cover_comms () =
  let g = tracking_like_graph () in
  let s = Syndex.Heft.map cost (Archi.ring 8) g in
  let per_link = Syndex.Schedule.link_orders s in
  let total_hops =
    List.fold_left (fun acc (_, comms) -> acc + List.length comms) 0 per_link
  in
  let expected_hops =
    List.fold_left
      (fun acc (c : Syndex.Schedule.comm_slot) ->
        let n = List.length c.Syndex.Schedule.hops in
        Alcotest.(check int) "one hop slot per route link"
          (Archi.hops s.Syndex.Schedule.arch c.Syndex.Schedule.from_proc
             c.Syndex.Schedule.to_proc)
          n;
        acc + n)
      0 s.Syndex.Schedule.comms
  in
  Alcotest.(check int) "every hop appears once" expected_hops total_hops

let test_cost_model_defaults () =
  let model = Syndex.Cost.make ~control_cycles:7.0 ~default_fn_cycles:9.0 () in
  let g = tracking_like_graph () in
  Array.iter
    (fun (nd : G.node) ->
      let c = model.Syndex.Cost.node_cycles nd in
      match nd.G.kind with
      | G.Join | G.Fork | G.Mem _ -> Alcotest.(check (float 0.0)) "control" 7.0 c
      | _ -> Alcotest.(check (float 0.0)) "function" 9.0 c)
    (G.nodes g)

let test_node_function () =
  Alcotest.(check (option string)) "worker fn" (Some "c")
    (Syndex.Cost.node_function { G.id = 0; kind = G.DfWorker { comp = "c" }; label = "" });
  Alcotest.(check (option string)) "join has none" None
    (Syndex.Cost.node_function { G.id = 0; kind = G.Join; label = "" })

(* -- pluggable mapper framework -- *)

(* Strategy-generic validity: a schedule is well-formed for a graph when it
   validates, is deadlock-free, places every DAG op exactly once, and
   starts no op before all its DAG predecessors have finished. *)
let mapper_schedule_ok ~name model g (s : Syndex.Schedule.t) =
  let dag = Syndex.Dag.of_graph model g in
  (match Syndex.Schedule.validate s with
  | Ok () -> ()
  | Error m -> QCheck.Test.fail_reportf "%s: invalid schedule: %s" name m);
  if not (Syndex.Schedule.deadlock_free s) then
    QCheck.Test.fail_reportf "%s: schedule not deadlock-free" name;
  let slots = Hashtbl.create 64 in
  List.iter
    (fun (o : Syndex.Schedule.op_slot) ->
      let key = (o.Syndex.Schedule.node, o.Syndex.Schedule.part) in
      if Hashtbl.mem slots key then
        QCheck.Test.fail_reportf "%s: node %d op placed twice" name
          o.Syndex.Schedule.node;
      Hashtbl.replace slots key o)
    s.Syndex.Schedule.ops;
  if Hashtbl.length slots <> Array.length dag.Syndex.Dag.ops then
    QCheck.Test.fail_reportf "%s: %d op slots for %d DAG ops" name
      (Hashtbl.length slots)
      (Array.length dag.Syndex.Dag.ops);
  let slot_of op_id =
    let op = dag.Syndex.Dag.ops.(op_id) in
    match Hashtbl.find_opt slots (op.Syndex.Dag.node, op.Syndex.Dag.part) with
    | Some slot -> slot
    | None -> QCheck.Test.fail_reportf "%s: DAG op %d has no slot" name op_id
  in
  List.iter
    (fun (d : Syndex.Dag.dep) ->
      let src = slot_of d.Syndex.Dag.src_op
      and dst = slot_of d.Syndex.Dag.dst_op in
      if dst.Syndex.Schedule.start < src.Syndex.Schedule.finish -. 1e-9 then
        QCheck.Test.fail_reportf
          "%s: dependency %d -> %d violated (dst starts %.9f before src ends %.9f)"
          name d.Syndex.Dag.src_op d.Syndex.Dag.dst_op
          dst.Syndex.Schedule.start src.Syndex.Schedule.finish)
    dag.Syndex.Dag.deps;
  true

let prop_all_mappers_valid =
  QCheck.Test.make
    ~name:"every registered mapper yields a well-formed schedule" ~count:40
    QCheck.(triple (int_range 1 6) (int_range 1 6) (int_range 1 8))
    (fun (nworkers, nparts, nprocs) ->
      let g =
        Procnet.Expand.expand_stage
          (Skel.Ir.Pipe
             [
               Skel.Ir.Scm { nparts; split = "s"; compute = "c"; merge = "m" };
               Skel.Ir.Df { nworkers; comp = "c2"; acc = "a"; init = V.Int 0; state = Skel.Ir.Stateless };
             ])
      in
      let arch = Archi.ring nprocs in
      List.for_all
        (fun (m : Syndex.Mapper.t) ->
          mapper_schedule_ok ~name:m.Syndex.Mapper.name cost g
            (Syndex.Mapper.map m cost arch g))
        (Syndex.Mapper.registered ()))

let test_registry_names () =
  let names = Syndex.Mapper.names () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [ "heft"; "canonical"; "roundrobin"; "throughput"; "bicriteria" ];
  Alcotest.(check bool) "find heft" true
    (Option.is_some (Syndex.Mapper.find "heft"));
  Alcotest.(check (option string)) "find unknown" None
    (Option.map (fun (m : Syndex.Mapper.t) -> m.Syndex.Mapper.name)
       (Syndex.Mapper.find "no-such-mapper"))

let test_frontier_points_undominated () =
  let g = tracking_like_graph ~nworkers:4 () in
  let arch = Archi.ring 6 in
  List.iter
    (fun (m : Syndex.Mapper.t) ->
      let pts = Syndex.Mapper.frontier m cost arch g in
      Alcotest.(check bool)
        (m.Syndex.Mapper.name ^ ": frontier nonempty")
        true (pts <> []);
      List.iter
        (fun (p : Syndex.Mapper.point) ->
          (match Syndex.Schedule.validate p.Syndex.Mapper.point_schedule with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "%s/%s: invalid schedule: %s"
                m.Syndex.Mapper.name p.Syndex.Mapper.point_label e);
          let dominated =
            List.exists
              (fun (q : Syndex.Mapper.point) ->
                q != p
                && q.Syndex.Mapper.point_latency <= p.Syndex.Mapper.point_latency
                && q.Syndex.Mapper.point_period <= p.Syndex.Mapper.point_period
                && (q.Syndex.Mapper.point_latency < p.Syndex.Mapper.point_latency
                   || q.Syndex.Mapper.point_period < p.Syndex.Mapper.point_period))
              pts
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s is undominated" m.Syndex.Mapper.name
               p.Syndex.Mapper.point_label)
            false dominated)
        pts)
    (Syndex.Mapper.registered ())

let test_pareto_filter () =
  let s = Syndex.Heft.map cost (Archi.ring 2) (tracking_like_graph ()) in
  let pt label lat per =
    {
      Syndex.Mapper.point_label = label;
      point_schedule = s;
      point_latency = lat;
      point_period = per;
    }
  in
  let pts =
    Syndex.Mapper.pareto
      [ pt "a" 1.0 5.0; pt "b" 2.0 4.0; pt "c" 3.0 4.0; pt "d" 2.0 4.0 ]
  in
  Alcotest.(check (list string)) "dominated and coincident points dropped"
    [ "a"; "b" ]
    (List.map (fun p -> p.Syndex.Mapper.point_label) pts)

let test_throughput_period_beats_heft_prediction () =
  (* A pure 6-stage chain: HEFT minimises latency by serialising it, so its
     resource period is the whole chain; the interval mapper's bottleneck
     stage must predict a strictly shorter steady-state period. *)
  let g =
    Procnet.Expand.expand_stage
      (Skel.Ir.Pipe (List.init 6 (fun i -> Skel.Ir.Seq (Printf.sprintf "s%d" i))))
  in
  let model = Syndex.Cost.make ~fn_cycles:(fun _ -> Some 40_000.0) () in
  let arch = Archi.ring 8 in
  let heft = Syndex.Heft.map model arch g in
  let tp =
    Syndex.Mapper.map
      (Option.get (Syndex.Mapper.find "throughput"))
      model arch g
  in
  Alcotest.(check bool) "pipelining metadata attached" true
    (Option.is_some tp.Syndex.Schedule.pipeline);
  Alcotest.(check bool)
    (Printf.sprintf "predicted period %.6f < %.6f"
       (Syndex.Schedule.period tp) (Syndex.Schedule.period heft))
    true
    (Syndex.Schedule.period tp < Syndex.Schedule.period heft)

(* -- interval mapper byte-identity -- *)

(* The interval DP as it stood when every k reran the whole table and
   every interval cost re-folded the dependencies: the oracle the one-table
   [Mapper.interval_partitions] must match bit for bit. *)
let oracle_interval_partition arch (dag : Syndex.Dag.t) seq k =
  let n = Array.length seq in
  let ct = Syndex.Heft.mean_cycle_time arch in
  let startup, bw = Syndex.Heft.mean_link_costs arch in
  let pos = Hashtbl.create 16 in
  Array.iteri (fun i node -> Hashtbl.replace pos node i) seq;
  let node_work = Array.make n 0.0 in
  Array.iter
    (fun (op : Syndex.Dag.op) ->
      let i = Hashtbl.find pos op.Syndex.Dag.node in
      node_work.(i) <- node_work.(i) +. (op.Syndex.Dag.cycles *. ct))
    dag.Syndex.Dag.ops;
  let prefix = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- prefix.(i) +. node_work.(i)
  done;
  let comm bytes =
    if bw = infinity then 0.0 else startup +. (float_of_int bytes /. bw)
  in
  let deps =
    List.filter_map
      (fun (d : Syndex.Dag.dep) ->
        match d.Syndex.Dag.edge with
        | None -> None
        | Some _ ->
            let node op = dag.Syndex.Dag.ops.(op).Syndex.Dag.node in
            let sp = Hashtbl.find pos (node d.Syndex.Dag.src_op) in
            let dp = Hashtbl.find pos (node d.Syndex.Dag.dst_op) in
            if sp = dp then None
            else Some (min sp dp, max sp dp, d.Syndex.Dag.bytes))
      dag.Syndex.Dag.deps
  in
  let interval_cost a b =
    let inbound =
      List.fold_left
        (fun acc (sp, dp, bytes) ->
          if sp < a && dp >= a && dp < b then acc +. comm bytes else acc)
        0.0 deps
    in
    prefix.(b) -. prefix.(a) +. inbound
  in
  let best = Array.make_matrix (k + 1) (n + 1) infinity in
  let cut = Array.make_matrix (k + 1) (n + 1) 0 in
  best.(0).(0) <- 0.0;
  for j = 1 to k do
    for b = j to n - (k - j) do
      for a = j - 1 to b - 1 do
        let c = Float.max best.(j - 1).(a) (interval_cost a b) in
        if c < best.(j).(b) then begin
          best.(j).(b) <- c;
          cut.(j).(b) <- a
        end
      done
    done
  done;
  let rec cuts j b acc =
    if j = 0 then acc else cuts (j - 1) cut.(j).(b) (cut.(j).(b) :: acc)
  in
  (best.(k).(n), cuts k n [ n ])

(* A random df/scm network of width 1-40 under a cost model whose function
   cycles and channel sizes vary with [seed] (every fourth seed: the
   uniform default model, which ties everywhere), on a random ring/chain/star/full
   architecture. *)
let random_interval_case (shape, width, seed, (topo, nprocs)) =
  let stage =
    match shape with
    | 0 ->
        Skel.Ir.Df
          { nworkers = width; comp = "c"; acc = "a"; init = V.Int 0;
            state = Skel.Ir.Stateless }
    | 1 -> Skel.Ir.Scm { nparts = width; split = "s"; compute = "c"; merge = "m" }
    | _ ->
        Skel.Ir.Pipe
          [
            Skel.Ir.Seq "pre";
            Skel.Ir.Scm
              { nparts = 1 + (width / 2); split = "s"; compute = "c"; merge = "m" };
            Skel.Ir.Df
              { nworkers = 1 + (width / 2); comp = "c2"; acc = "a";
                init = V.Int 0; state = Skel.Ir.Stateless };
          ]
  in
  let g = Procnet.Expand.expand_stage stage in
  let model =
    if seed mod 4 = 0 then cost
    else
      Syndex.Cost.make
        ~fn_cycles:(fun name ->
          Some (float_of_int (1_000 + (Hashtbl.hash (seed, name) mod 50_000))))
        ~edge_bytes:(fun (e : G.edge) ->
          Some (16 + (Hashtbl.hash (seed, e.G.src, e.G.dst) mod 8_192)))
        ()
  in
  let bandwidth = [| 1e6; 1e7; 3e7 |].(seed mod 3) in
  let arch =
    match topo with
    | 0 -> Archi.ring ~bandwidth nprocs
    | 1 -> Archi.chain ~bandwidth nprocs
    | 2 -> Archi.star ~bandwidth nprocs
    | _ -> Archi.fully_connected ~bandwidth nprocs
  in
  (model, arch, g)

let prop_interval_partitions_match_oracle =
  QCheck.Test.make
    ~name:"one interval table answers every k bit for bit" ~count:100
    QCheck.(
      quad (int_range 0 2) (int_range 1 40) (int_range 0 1000)
        (pair (int_range 0 3) (int_range 1 24)))
    (fun case ->
      let model, arch, g = random_interval_case case in
      let dag = Syndex.Dag.of_graph model g in
      let seq = Syndex.Mapper.linearize dag in
      let k_max = min (Archi.nprocs arch) (Array.length seq) in
      let table = Syndex.Mapper.interval_partitions arch dag seq k_max in
      if List.length table <> k_max then
        QCheck.Test.fail_reportf "%d table rows for k_max %d" (List.length table)
          k_max;
      List.iteri
        (fun i (bottleneck, cuts) ->
          let k = i + 1 in
          let want_b, want_cuts = oracle_interval_partition arch dag seq k in
          if Int64.bits_of_float bottleneck <> Int64.bits_of_float want_b then
            QCheck.Test.fail_reportf "k=%d: bottleneck %h, oracle %h" k
              bottleneck want_b;
          if cuts <> want_cuts then
            QCheck.Test.fail_reportf "k=%d: cuts [%s], oracle [%s]" k
              (String.concat ";" (List.map string_of_int cuts))
              (String.concat ";" (List.map string_of_int want_cuts)))
        table;
      true)

let disconnected_pair () =
  let procs =
    Array.init 2 (fun i ->
        { Archi.id = i; pname = Printf.sprintf "P%d" i; cycle_time = 5e-8 })
  in
  Archi.custom ~name:"disconnected" procs []

let test_of_placement_unreachable () =
  let g =
    Procnet.Expand.expand_stage (Skel.Ir.Pipe [ Skel.Ir.Seq "a"; Skel.Ir.Seq "b" ])
  in
  let arch = disconnected_pair () in
  let placement = Array.init (G.nnodes g) (fun i -> i mod 2) in
  Alcotest.check_raises "same text as Archi.route"
    (Failure "Archi.route: no path 0 -> 1")
    (fun () -> ignore (Syndex.Place.of_placement cost arch g placement))

let test_heft_skips_unreachable () =
  let g = tracking_like_graph ~nworkers:3 () in
  let s = Syndex.Heft.map cost (disconnected_pair ()) g in
  Alcotest.(check bool) "everything on the reachable processor" true
    (Array.for_all (( = ) 0) s.Syndex.Schedule.placement)

(* -- HEFT determinism -- *)

let test_heft_tie_break_pin () =
  (* Uniform costs tie the upward ranks and finish times everywhere, so
     this placement is entirely the product of the documented tie-breaks
     (equal ranks -> lowest node id, equal finish -> lowest processor id).
     Any comparator change shows up as a different array, and two runs must
     agree byte-for-byte. *)
  let uniform =
    Syndex.Cost.make ~control_cycles:1000.0 ~default_fn_cycles:1000.0 ()
  in
  let g = tracking_like_graph ~nworkers:4 () in
  let arch = Archi.ring 4 in
  let s1 = Syndex.Heft.map uniform arch g in
  let s2 = Syndex.Heft.map uniform arch g in
  Alcotest.(check (array int)) "deterministic placement"
    s1.Syndex.Schedule.placement s2.Syndex.Schedule.placement;
  Alcotest.(check (list (pair int int))) "deterministic op slots"
    (List.map
       (fun (o : Syndex.Schedule.op_slot) -> (o.Syndex.Schedule.node, o.Syndex.Schedule.proc))
       s1.Syndex.Schedule.ops)
    (List.map
       (fun (o : Syndex.Schedule.op_slot) -> (o.Syndex.Schedule.node, o.Syndex.Schedule.proc))
       s2.Syndex.Schedule.ops);
  Alcotest.(check (array int)) "pinned tie-break placement"
    [| 0; 1; 0; 0; 0; 0; 0; 0; 0; 0; 1; 0 |]
    s1.Syndex.Schedule.placement

let prop_heft_always_valid =
  QCheck.Test.make ~name:"HEFT schedules validate on random configs" ~count:60
    QCheck.(triple (int_range 1 8) (int_range 1 8) (int_range 1 10))
    (fun (nworkers, nparts, nprocs) ->
      let g =
        Procnet.Expand.expand_stage
          (Skel.Ir.Pipe
             [
               Skel.Ir.Scm { nparts; split = "s"; compute = "c"; merge = "m" };
               Skel.Ir.Df { nworkers; comp = "c2"; acc = "a"; init = V.Int 0; state = Skel.Ir.Stateless };
             ])
      in
      let s = Syndex.Heft.map cost (Archi.ring nprocs) g in
      Result.is_ok (Syndex.Schedule.validate s) && Syndex.Schedule.deadlock_free s)

let () =
  Alcotest.run "syndex"
    [
      ( "dag",
        [
          Alcotest.test_case "splits masters and mem" `Quick test_dag_splits_masters_and_mem;
          Alcotest.test_case "topological order" `Quick test_dag_topological_order;
        ] );
      ( "heft",
        [
          Alcotest.test_case "schedules validate" `Quick test_heft_schedule_validates;
          Alcotest.test_case "colocation respected" `Quick test_heft_colocation_respected;
          Alcotest.test_case "single proc no comms" `Quick test_single_processor_has_no_comms;
          Alcotest.test_case "parallel predicted faster" `Quick test_heft_beats_or_matches_single_proc;
          Alcotest.test_case "tie-break pin" `Quick test_heft_tie_break_pin;
          QCheck_alcotest.to_alcotest prop_heft_always_valid;
        ] );
      ( "mappers",
        [
          Alcotest.test_case "registry names" `Quick test_registry_names;
          Alcotest.test_case "frontier undominated" `Quick test_frontier_points_undominated;
          Alcotest.test_case "pareto filter" `Quick test_pareto_filter;
          Alcotest.test_case "throughput predicted period" `Quick
            test_throughput_period_beats_heft_prediction;
          QCheck_alcotest.to_alcotest prop_all_mappers_valid;
          QCheck_alcotest.to_alcotest prop_interval_partitions_match_oracle;
        ] );
      ( "placements",
        [
          Alcotest.test_case "canonical layout" `Quick test_canonical_placement;
          Alcotest.test_case "of_placement validates" `Quick test_of_placement_validates;
          Alcotest.test_case "of_placement rejects bad input" `Quick test_of_placement_rejects_bad_input;
          Alcotest.test_case "of_placement unreachable" `Quick test_of_placement_unreachable;
          Alcotest.test_case "heft skips unreachable" `Quick test_heft_skips_unreachable;
        ] );
      ( "model",
        [
          Alcotest.test_case "link orders cover comms" `Quick test_link_orders_cover_comms;
          Alcotest.test_case "cost defaults" `Quick test_cost_model_defaults;
          Alcotest.test_case "node_function" `Quick test_node_function;
        ] );
    ]
