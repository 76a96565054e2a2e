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

(* The "heft" strategy on a fresh problem *)
let heft_map cost arch g =
  (Option.get (Syndex.Mapper.find "heft")).Syndex.Mapper.map
    (Syndex.Mapper.problem cost arch g)

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
      let s = heft_map cost arch g in
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
  let s = heft_map cost (Archi.ring 6) g in
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
  let s = heft_map cost (Archi.ring 1) g in
  Alcotest.(check int) "no communications" 0 (List.length s.Syndex.Schedule.comms)

let test_heft_beats_or_matches_single_proc () =
  (* With parallel work available, more processors should not predict a
     (much) longer makespan than one processor. *)
  let fn_cycles name = if name = "c" then Some 200_000.0 else None in
  let heavy = Syndex.Cost.make ~fn_cycles () in
  let g = tracking_like_graph ~nworkers:6 () in
  let m1 = (heft_map heavy (Archi.ring 1) g).Syndex.Schedule.makespan in
  let m8 = (heft_map heavy (Archi.ring 8) g).Syndex.Schedule.makespan in
  Alcotest.(check bool) "parallel is predicted faster" true (m8 < m1)

let test_link_orders_cover_comms () =
  let g = tracking_like_graph () in
  let s = heft_map cost (Archi.ring 8) g in
  let per_link = Syndex.Schedule.link_orders s in
  let total_hops =
    List.fold_left (fun acc (_, comms) -> acc + List.length comms) 0 per_link
  in
  let expected_hops =
    List.fold_left
      (fun acc (c : Syndex.Schedule.comm_slot) ->
        let n = List.length c.Syndex.Schedule.hops in
        Alcotest.(check int) "one hop slot per route link"
          (List.length
             (Archi.route s.Syndex.Schedule.arch c.Syndex.Schedule.from_proc
                c.Syndex.Schedule.to_proc)
          - 1)
          n;
        acc + n)
      0 s.Syndex.Schedule.comms
  in
  Alcotest.(check int) "every hop appears once" expected_hops total_hops

let test_cost_model_defaults () =
  let model = Syndex.Cost.make () in
  let g = tracking_like_graph () in
  Array.iter
    (fun (nd : G.node) ->
      let c = model.Syndex.Cost.node_cycles nd in
      match nd.G.kind with
      | G.Join | G.Fork | G.Mem _ -> Alcotest.(check (float 0.0)) "control" 500.0 c
      | _ -> Alcotest.(check (float 0.0)) "function" 10_000.0 c)
    (G.nodes g)

(* The model finds the function each process applies: a worker is charged
   its [comp]'s estimate, a join (no function) the control cost. *)
let test_node_function () =
  let model = Syndex.Cost.make ~fn_cycles:(function "c" -> Some 7.0 | _ -> None) () in
  Alcotest.(check (float 0.0)) "worker fn" 7.0
    (model.Syndex.Cost.node_cycles { G.id = 0; kind = G.DfWorker { comp = "c" }; label = "" });
  Alcotest.(check (float 0.0)) "join has none" 500.0
    (model.Syndex.Cost.node_cycles { G.id = 0; kind = G.Join; label = "" })

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
            (m.Syndex.Mapper.map (Syndex.Mapper.problem cost arch g)))
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
      let pts = Syndex.Mapper.frontier m (Syndex.Mapper.problem cost arch g) in
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
  let s = heft_map cost (Archi.ring 2) (tracking_like_graph ()) in
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
  let heft = heft_map model arch g in
  let tp =
    (Option.get (Syndex.Mapper.find "throughput")).Syndex.Mapper.map
      (Syndex.Mapper.problem model arch g)
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

(* A random network of width 1-40 (a df farm, an scm, a seq-scm-df
   pipeline, a farm followed by a stage, or a farm in an [Itermem] loop)
   under a cost model whose function cycles and channel sizes vary with
   [seed] (every fourth seed: the uniform default model, which ties
   everywhere), on a random ring/chain/star/full architecture. *)
let random_interval_case (shape, width, seed, (topo, nprocs)) =
  let stage =
    match shape with
    | 0 ->
        Skel.Ir.Df
          { nworkers = width; comp = "c"; acc = "a"; init = V.Int 0;
            state = Skel.Ir.Stateless }
    | 1 -> Skel.Ir.Scm { nparts = width; split = "s"; compute = "c"; merge = "m" }
    | 3 ->
        (* a stage after the farm: where it goes depends on where the
           master's Collect half went, so a mapper that ignores colocation
           places it differently *)
        Skel.Ir.Pipe
          [
            Skel.Ir.Df
              { nworkers = width; comp = "c"; acc = "a"; init = V.Int 0;
                state = Skel.Ir.Stateless };
            Skel.Ir.Seq "post";
          ]
    | 4 ->
        (* a farm in a stream loop, which adds the loop's Mem nodes *)
        Skel.Ir.Itermem
          {
            input = "in";
            loop =
              Skel.Ir.Pipe
                [
                  Skel.Ir.Seq "pre";
                  Skel.Ir.Df
                    { nworkers = width; comp = "c"; acc = "a"; init = V.Int 0;
                      state = Skel.Ir.Stateless };
                  Skel.Ir.Seq "post";
                ];
            output = "out";
            init = V.Int 0;
          }
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
      {
        (Syndex.Cost.make
           ~fn_cycles:(fun name ->
             Some (float_of_int (1_000 + (Hashtbl.hash (seed, name) mod 50_000))))
           ())
        with
        Syndex.Cost.edge_bytes =
          (fun (e : G.edge) ->
            16 + (Hashtbl.hash (seed, e.G.src, e.G.dst) mod 8_192));
      }
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
      quad (int_range 0 4) (int_range 1 40) (int_range 0 1000)
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

(* -- static scheduler and bicriteria byte-identity -- *)

(* The static scheduler, the resource period and the bicriteria frontier as
   they stood when transfers were found by hashing [Dag.dep] records, link
   loads by hashing (src, dst) pairs, ops and comms were sorted with the
   polymorphic tuple compare, and every interval candidate's schedule stayed
   live until the Pareto filter ran: the oracles the new code must match
   bit for bit. *)
module S = Syndex.Schedule

(* [link_busy] maps a link's (src, dst) to its list book. *)
let oracle_reserve_transfer arch link_busy ~src ~dst ~bytes ~depart =
  let rec walk depart hops = function
    | a :: (b :: _ as rest) ->
        let link = Option.get (Archi.link_between arch a b) in
        let duration =
          link.Archi.startup +. (float_of_int bytes /. link.Archi.bandwidth)
        in
        let book =
          Option.value ~default:Intervals_list.empty (Hashtbl.find_opt link_busy (a, b))
        in
        let start, updated = Intervals_list.reserve book ~earliest:depart ~duration in
        Hashtbl.replace link_busy (a, b) updated;
        walk (start +. duration)
          ({ S.hop_src = a; hop_dst = b; hop_start = start;
             hop_finish = start +. duration }
          :: hops)
          rest
    | _ -> (depart, List.rev hops)
  in
  walk depart [] (Archi.route arch src dst)

let oracle_of_placement model arch g placement =
  let module D = Syndex.Dag in
  let dag = D.of_graph model g in
  let nops = Array.length dag.D.ops in
  let op_proc = Array.map (fun (op : D.op) -> placement.(op.D.node)) dag.D.ops in
  let op_start = Array.make nops 0.0 and op_finish = Array.make nops 0.0 in
  let avail = Array.make (Archi.nprocs arch) 0.0 in
  let link_busy = Hashtbl.create 16 in
  let cycle_time p = (Archi.processors arch).(p).Archi.cycle_time in
  let transfers : (D.dep, float * float * S.hop_slot list) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun i ->
      let p = op_proc.(i) in
      let est =
        List.fold_left
          (fun acc (d : D.dep) ->
            let src = d.D.src_op in
            let arrival =
              match d.D.edge with
              | None -> op_finish.(src)
              | Some _ ->
                  let sp = op_proc.(src) in
                  let send_oh =
                    Archi.send_overhead_cycles *. cycle_time sp
                  in
                  let recv_oh =
                    Archi.recv_overhead_cycles *. cycle_time p
                  in
                  if sp = p then
                    op_finish.(src) +. send_oh
                    +. (float_of_int d.D.bytes /. Archi.local_copy_bandwidth)
                    +. recv_oh
                  else begin
                    let depart = op_finish.(src) +. send_oh in
                    let arrival, hops =
                      oracle_reserve_transfer arch link_busy ~src:sp ~dst:p
                        ~bytes:d.D.bytes ~depart
                    in
                    Hashtbl.replace transfers d (depart, arrival, hops);
                    arrival +. recv_oh
                  end
            in
            Float.max acc arrival)
          avail.(p) dag.D.preds.(i)
      in
      op_start.(i) <- est;
      op_finish.(i) <- est +. (dag.D.ops.(i).D.cycles *. cycle_time p);
      avail.(p) <- op_finish.(i))
    (D.topological_order dag);
  let ops =
    Array.to_list dag.D.ops
    |> List.map (fun (op : D.op) ->
           { S.node = op.D.node; part = op.D.part; proc = op_proc.(op.D.op_id);
             start = op_start.(op.D.op_id); finish = op_finish.(op.D.op_id) })
    |> List.sort (fun (a : S.op_slot) (b : S.op_slot) ->
           compare (a.S.start, a.S.node) (b.S.start, b.S.node))
  in
  let comms =
    List.filter_map
      (fun (d : D.dep) ->
        match (d.D.edge, Hashtbl.find_opt transfers d) with
        | Some e, Some (depart, arrival, hops) ->
            Some
              { S.edge = e; from_proc = op_proc.(d.D.src_op);
                to_proc = op_proc.(d.D.dst_op); bytes = d.D.bytes;
                start = depart; finish = arrival; hops }
        | _ -> None)
      dag.D.deps
    |> List.sort (fun (a : S.comm_slot) (b : S.comm_slot) ->
           compare (a.S.start, a.S.bytes) (b.S.start, b.S.bytes))
  in
  { S.graph = g; arch; placement = Array.copy placement; ops; comms;
    makespan = Array.fold_left Float.max 0.0 op_finish; pipeline = None }

let oracle_resource_period (t : S.t) =
  let proc_load = Array.make (Archi.nprocs t.S.arch) 0.0 in
  List.iter
    (fun (op : S.op_slot) ->
      proc_load.(op.S.proc) <- proc_load.(op.S.proc) +. (op.S.finish -. op.S.start))
    t.S.ops;
  let link_load = Hashtbl.create 16 in
  List.iter
    (fun (c : S.comm_slot) ->
      List.iter
        (fun (h : S.hop_slot) ->
          let key = (h.S.hop_src, h.S.hop_dst) in
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt link_load key) in
          Hashtbl.replace link_load key (prev +. (h.S.hop_finish -. h.S.hop_start)))
        c.S.hops)
    t.S.comms;
  let busiest = Array.fold_left Float.max 0.0 proc_load in
  Hashtbl.fold (fun _ load acc -> Float.max load acc) link_load busiest

let oracle_interval_bounds cuts =
  let rec pairs = function a :: (b :: _ as rest) -> (a, b) :: pairs rest | _ -> [] in
  pairs cuts

let oracle_interval_placement g seq cuts =
  let placement = Array.make (G.nnodes g) 0 in
  List.iteri
    (fun stage (a, b) -> for i = a to b - 1 do placement.(seq.(i)) <- stage done)
    (oracle_interval_bounds cuts);
  placement

let oracle_interval_schedule model arch g seq cuts =
  let bounds = oracle_interval_bounds cuts in
  let placement = oracle_interval_placement g seq cuts in
  let sched = oracle_of_placement model arch g placement in
  let proc_load = Array.make (Archi.nprocs arch) 0.0 in
  List.iter
    (fun (op : S.op_slot) ->
      proc_load.(op.S.proc) <- proc_load.(op.S.proc) +. (op.S.finish -. op.S.start))
    sched.S.ops;
  let stages =
    List.mapi
      (fun stage (a, b) ->
        { S.stage_proc = stage; stage_nodes = Array.to_list (Array.sub seq a (b - a));
          stage_load = proc_load.(stage) })
      bounds
  in
  { sched with
    S.pipeline =
      Some
        { S.frames_in_flight = List.length bounds;
          predicted_period = oracle_resource_period sched; stages } }

let oracle_point schedule label =
  { Syndex.Mapper.point_label = label; point_schedule = schedule;
    point_latency = schedule.S.makespan;
    point_period =
      (match schedule.S.pipeline with
      | Some p -> p.S.predicted_period
      | None -> oracle_resource_period schedule) }

(* [Heft.placement] as it was computed before the ready list became a
   FIFO with pred counters: rescan the whole remaining list for ready ops
   after every pick, fold every colocation pair per op, and try each
   processor from a fresh candidate list. *)
let oracle_heft_placement model arch g =
  let dag = Syndex.Dag.of_graph model g in
  let nops = Array.length dag.Syndex.Dag.ops in
  let nprocs = Archi.nprocs arch in
  let startup, bw = Syndex.Heft.mean_link_costs arch in
  let ct = Syndex.Heft.mean_cycle_time arch in
  let ranks = Array.make nops nan in
  let rec rank i =
    if not (Float.is_nan ranks.(i)) then ranks.(i)
    else begin
      let self = dag.Syndex.Dag.ops.(i).Syndex.Dag.cycles *. ct in
      let tail =
        List.fold_left
          (fun best (d : Syndex.Dag.dep) ->
            let comm =
              if bw = infinity then 0.0
              else startup +. (float_of_int d.Syndex.Dag.bytes /. bw)
            in
            Float.max best (comm +. rank d.Syndex.Dag.dst_op))
          0.0 dag.Syndex.Dag.succs.(i)
      in
      ranks.(i) <- self +. tail;
      ranks.(i)
    end
  in
  for i = 0 to nops - 1 do
    ignore (rank i)
  done;
  let order =
    List.sort
      (fun a b -> match compare ranks.(b) ranks.(a) with 0 -> compare a b | c -> c)
      (Syndex.Dag.topological_order dag)
  in
  let placed = Array.make nops false and op_proc = Array.make nops (-1) in
  let op_finish = Array.make nops 0.0 and avail = Array.make nprocs 0.0 in
  let forced_proc i =
    List.fold_left
      (fun acc (a, b) ->
        if a = i && placed.(b) then Some op_proc.(b)
        else if b = i && placed.(a) then Some op_proc.(a)
        else acc)
      None dag.Syndex.Dag.colocated
  in
  let cycle_time p = (Archi.processors arch).(p).Archi.cycle_time in
  let est i p =
    List.fold_left
      (fun acc (d : Syndex.Dag.dep) ->
        let src = d.Syndex.Dag.src_op in
        let arrival =
          match d.Syndex.Dag.edge with
          | None -> op_finish.(src)
          | Some _ ->
              let sp = op_proc.(src) in
              let overheads =
                (Archi.send_overhead_cycles *. cycle_time sp)
                +. (Archi.recv_overhead_cycles *. cycle_time p)
              in
              if sp = p then
                op_finish.(src) +. overheads
                +. (float_of_int d.Syndex.Dag.bytes /. Archi.local_copy_bandwidth)
              else
                op_finish.(src) +. overheads
                +. Archi.transfer_time arch sp p d.Syndex.Dag.bytes
        in
        Float.max acc arrival)
      avail.(p) dag.Syndex.Dag.preds.(i)
  in
  let schedule_op i =
    let candidates =
      match forced_proc i with Some p -> [ p ] | None -> List.init nprocs Fun.id
    in
    let best =
      List.fold_left
        (fun best p ->
          if p <> 0 && Archi.first_link arch 0 p < 0 then best
          else
            let s = est i p in
            let f = s +. (dag.Syndex.Dag.ops.(i).Syndex.Dag.cycles *. cycle_time p) in
            match best with
            | Some (bf, bp) when bf < f || (bf = f && bp < p) -> best
            | _ -> Some (f, p))
        None candidates
    in
    match best with
    | None -> failwith "Heft.placement: no reachable processor"
    | Some (f, p) ->
        placed.(i) <- true;
        op_proc.(i) <- p;
        op_finish.(i) <- f;
        avail.(p) <- f
  in
  let remaining = ref order in
  while !remaining <> [] do
    let ready, blocked =
      List.partition
        (fun i ->
          List.for_all
            (fun (d : Syndex.Dag.dep) -> placed.(d.Syndex.Dag.src_op))
            dag.Syndex.Dag.preds.(i))
        !remaining
    in
    match ready with
    | [] -> failwith "Heft.placement: cyclic scheduling graph"
    | i :: rest ->
        schedule_op i;
        remaining := rest @ blocked
  done;
  let placement = Array.make (G.nnodes g) 0 in
  Array.iteri
    (fun node ops -> match ops with op :: _ -> placement.(node) <- op_proc.(op) | [] -> ())
    dag.Syndex.Dag.ops_of_node;
  placement

(* Every candidate scheduled and kept, then the Pareto filter; the knee is
   the minimal latency x period product, ties to lower latency, then label. *)
let oracle_bicriteria model arch g =
  let dag = Syndex.Dag.of_graph model g in
  let seq = Syndex.Mapper.linearize dag in
  let k_max = min (Archi.nprocs arch) (Array.length seq) in
  let heft = oracle_of_placement model arch g (oracle_heft_placement model arch g) in
  let intervals =
    List.init k_max (fun i ->
        let _, cuts = oracle_interval_partition arch dag seq (i + 1) in
        oracle_point (oracle_interval_schedule model arch g seq cuts)
          (Printf.sprintf "interval-k%d" (i + 1)))
  in
  let frontier = Syndex.Mapper.pareto (oracle_point heft "heft" :: intervals) in
  let key (p : Syndex.Mapper.point) =
    ( p.Syndex.Mapper.point_latency *. p.Syndex.Mapper.point_period,
      p.Syndex.Mapper.point_latency, p.Syndex.Mapper.point_label )
  in
  let knee =
    List.fold_left (fun b q -> if key q < key b then q else b)
      (List.hd frontier) (List.tl frontier)
  in
  (frontier, knee.Syndex.Mapper.point_schedule)

(* One line per slot, every float as its bit pattern. *)
let schedule_bits (s : S.t) =
  let b x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
  let part = function
    | Syndex.Dag.Whole -> "whole" | Dispatch -> "dispatch" | Collect -> "collect"
    | Emit -> "emit" | Store -> "store"
  in
  (Printf.sprintf "makespan %s period %s placement %s" (b s.S.makespan)
     (b (S.period s))
     (String.concat "," (List.map string_of_int (Array.to_list s.S.placement))))
  :: List.map
       (fun (o : S.op_slot) ->
         Printf.sprintf "op %d %s P%d %s %s" o.S.node (part o.S.part) o.S.proc
           (b o.S.start) (b o.S.finish))
       s.S.ops
  @ List.concat_map
      (fun (c : S.comm_slot) ->
        Printf.sprintf "comm %d.%s->%d.%s P%d->P%d %dB %s %s" c.S.edge.G.src
          c.S.edge.G.src_port c.S.edge.G.dst c.S.edge.G.dst_port c.S.from_proc
          c.S.to_proc c.S.bytes (b c.S.start) (b c.S.finish)
        :: List.map
             (fun (h : S.hop_slot) ->
               Printf.sprintf "  hop P%d->P%d %s %s" h.S.hop_src h.S.hop_dst
                 (b h.S.hop_start) (b h.S.hop_finish))
             c.S.hops)
      s.S.comms
  @
  match s.S.pipeline with
  | None -> []
  | Some p ->
      Printf.sprintf "pipeline %d %s" p.S.frames_in_flight (b p.S.predicted_period)
      :: List.map
           (fun (st : S.stage_interval) ->
             Printf.sprintf "stage P%d [%s] %s" st.S.stage_proc
               (String.concat "," (List.map string_of_int st.S.stage_nodes))
               (b st.S.stage_load))
           p.S.stages

let check_same_schedule what got want =
  let rec first_diff i = function
    | g :: gs, w :: ws ->
        if g = w then first_diff (i + 1) (gs, ws)
        else QCheck.Test.fail_reportf "%s, line %d: got %s, oracle %s" what i g w
    | [], [] -> ()
    | g :: _, [] -> QCheck.Test.fail_reportf "%s, extra line %d: %s" what i g
    | [], w :: _ -> QCheck.Test.fail_reportf "%s, missing line %d: %s" what i w
  in
  first_diff 0 (schedule_bits got, schedule_bits want)

(* A random machine: ring, chain, star, grid or fully connected with one
   bandwidth, or a strongly connected [Archi.custom] graph (a random
   bidirectional spanning tree plus random one-way links) whose processors
   and links all differ in speed, a third of the links with no startup
   cost. *)
let random_arch topo nprocs seed =
  let bandwidth = [| 1e6; 1e7; 3e7 |].(seed mod 3) in
  match topo with
  | 0 -> Archi.ring ~bandwidth nprocs
  | 1 -> Archi.chain ~bandwidth nprocs
  | 2 -> Archi.star ~bandwidth nprocs
  | 3 ->
      let rows = 1 + (seed mod 3) in
      Archi.grid ~bandwidth rows (max 1 (nprocs / rows))
  | 4 -> Archi.fully_connected ~bandwidth nprocs
  | _ ->
      let rng = Random.State.make [| seed; nprocs |] in
      let edges = ref [] and linked = Hashtbl.create 16 in
      let link a b =
        if a <> b && not (Hashtbl.mem linked (a, b)) then begin
          Hashtbl.add linked (a, b) ();
          edges :=
            ( a, b, [| 1e6; 1e7; 3.3e7 |].(Random.State.int rng 3),
              [| 0.0; 1e-6; Random.State.float rng 1e-5 |].(Random.State.int rng 3) )
            :: !edges
        end
      in
      for i = 1 to nprocs - 1 do
        let j = Random.State.int rng i in
        link i j;
        link j i
      done;
      for _ = 1 to nprocs do
        link (Random.State.int rng nprocs) (Random.State.int rng nprocs)
      done;
      Archi.custom ~name:"random"
        (Array.init nprocs (fun i ->
             { Archi.id = i; pname = Printf.sprintf "P%d" i;
               cycle_time = [| 5e-8; 2.5e-8; 1e-7 |].(Random.State.int rng 3) }))
        (List.rev !edges)

(* A random network and cost model ([random_interval_case]) with a fifth
   of its messages empty, on a [random_arch] machine: (model, arch, graph,
   the canonical, round-robin and a random placement, by name). *)
let random_placed_case (shape, width, seed, (topo, nprocs)) =
  let model, _, g = random_interval_case (shape, width, seed, (0, 1)) in
  (* empty messages: zero-length hops over links without startup cost *)
  let model =
    { model with
      Syndex.Cost.edge_bytes =
        (fun (e : G.edge) ->
          if Hashtbl.hash (seed, e.G.src, e.G.dst) mod 5 = 0 then 0
          else model.Syndex.Cost.edge_bytes e) }
  in
  let arch = random_arch topo nprocs seed in
  let p = Archi.nprocs arch in
  let rng = Random.State.make [| seed; width |] in
  let placements =
    [ ("canonical", Syndex.Place.canonical g arch);
      ("roundrobin", Syndex.Place.round_robin g arch);
      ("random", Array.init (G.nnodes g) (fun _ -> Random.State.int rng p)) ]
  in
  (model, arch, g, placements)

(* Every interval candidate's placement, by label, with the oracle's cuts *)
let interval_candidate_placements arch dag g =
  let seq = Syndex.Mapper.linearize dag in
  let k_max = min (Archi.nprocs arch) (Array.length seq) in
  List.init k_max (fun i ->
      let _, cuts = oracle_interval_partition arch dag seq (i + 1) in
      (Printf.sprintf "interval-k%d" (i + 1), oracle_interval_placement g seq cuts))

let random_placed_arb =
  QCheck.(
    quad (int_range 0 4) (int_range 1 30) (int_range 0 1000)
      (pair (int_range 0 5) (int_range 1 16)))

let prop_schedules_match_oracle =
  QCheck.Test.make
    ~name:"static schedules and the bicriteria frontier match the oracle bit for bit"
    ~count:120 random_placed_arb
    (fun case ->
      let model, arch, g, placements = random_placed_case case in
      List.iter
        (fun (what, placement) ->
          let got = Syndex.Place.of_placement model arch g placement in
          let want = oracle_of_placement model arch g placement in
          check_same_schedule (what ^ " placement") got want;
          let rp = S.resource_period got and want_rp = oracle_resource_period want in
          if Int64.bits_of_float rp <> Int64.bits_of_float want_rp then
            QCheck.Test.fail_reportf "%s: resource period %h, oracle %h" what rp
              want_rp)
        placements;
      (* every placement above and every interval candidate, scored in
         turn on one scratch: each score must be the oracle schedule's
         makespan and resource period, frontier member or not *)
      let dag = Syndex.Dag.of_graph model g in
      let candidates = interval_candidate_placements arch dag g in
      let sc = Syndex.Place.scratch arch dag in
      List.iter
        (fun (what, placement) ->
          Syndex.Place.run sc placement;
          let makespan, period = Syndex.Place.score sc in
          let want = oracle_of_placement model arch g placement in
          let bits = Int64.bits_of_float in
          if bits makespan <> bits want.S.makespan then
            QCheck.Test.fail_reportf "%s: scored makespan %h, oracle %h" what
              makespan want.S.makespan;
          let want_rp = oracle_resource_period want in
          if bits period <> bits want_rp then
            QCheck.Test.fail_reportf "%s: scored period %h, oracle %h" what
              period want_rp)
        (placements @ candidates);
      check_same_schedule "heft" (heft_map model arch g)
        (oracle_of_placement model arch g (oracle_heft_placement model arch g));
      let bicriteria = Option.get (Syndex.Mapper.find "bicriteria") in
      let frontier =
        Syndex.Mapper.frontier bicriteria (Syndex.Mapper.problem model arch g)
      in
      let want_frontier, want_knee = oracle_bicriteria model arch g in
      let labels pts = List.map (fun (q : Syndex.Mapper.point) -> q.Syndex.Mapper.point_label) pts in
      if labels frontier <> labels want_frontier then
        QCheck.Test.fail_reportf "frontier [%s], oracle [%s]"
          (String.concat ";" (labels frontier)) (String.concat ";" (labels want_frontier));
      List.iter2
        (fun (q : Syndex.Mapper.point) (w : Syndex.Mapper.point) ->
          check_same_schedule q.Syndex.Mapper.point_label q.Syndex.Mapper.point_schedule
            w.Syndex.Mapper.point_schedule)
        frontier want_frontier;
      let json pts = Syndex.Mapper.frontier_json ~strategy:"bicriteria" ~arch pts in
      if json frontier <> json want_frontier then
        QCheck.Test.fail_reportf "frontier_json %s, oracle %s" (json frontier)
          (json want_frontier);
      check_same_schedule "knee"
        (bicriteria.Syndex.Mapper.map (Syndex.Mapper.problem model arch g))
        want_knee;
      true)

(* Both bounds at or below the score, for every placement the mappers
   weigh and for arbitrary ones: a bound above it would let bicriteria
   skip a candidate that belongs on the frontier. *)
let prop_bounds_below_score =
  QCheck.Test.make ~name:"bounds never exceed the score" ~count:200
    random_placed_arb
    (fun case ->
      let model, arch, g, placements = random_placed_case case in
      let dag = Syndex.Dag.of_graph model g in
      let sc = Syndex.Place.scratch arch dag
      and bs = Syndex.Place.bounds_scratch arch dag in
      List.iter
        (fun (what, placement) ->
          let latency, period = Syndex.Place.bounds bs placement in
          Syndex.Place.run sc placement;
          let makespan, resource_period = Syndex.Place.score sc in
          if not (latency <= makespan) then
            QCheck.Test.fail_reportf "%s: makespan bound %h above makespan %h"
              what latency makespan;
          if not (period <= resource_period) then
            QCheck.Test.fail_reportf "%s: period bound %h above period %h" what
              period resource_period)
        (placements @ interval_candidate_placements arch dag g);
      true)

(* -- one mapping problem per compiled value -- *)

(* A heterogeneous ring with one bidirectional chord: every third
   processor twice as fast, the chord slower to start and narrower. *)
let chorded_ring w =
  let procs =
    Array.init w (fun i ->
        { Archi.id = i; pname = Printf.sprintf "P%d" i;
          cycle_time = (if i mod 3 = 0 then 2.5e-8 else 5e-8) })
  in
  let ring =
    List.concat
      (List.init w (fun i ->
           let j = (i + 1) mod w in
           [ (i, j, 1e7, 1e-6); (j, i, 1e7, 1e-6) ]))
  in
  Archi.custom ~name:(Printf.sprintf "chorded-ring-%d" w) procs
    ((0, w / 2, 4e6, 3e-6) :: (w / 2, 0, 4e6, 3e-6) :: ring)

(* [Pipeline.map] and [Pipeline.frontier] map every strategy of one
   compiled value on one shared [Mapper.problem]: in forward, reverse and
   a shuffled order, each schedule, its macro-code and the strategy's
   frontier must equal what the strategy makes of a fresh problem, on six
   machines at two widths. *)
let test_shared_problem_matches_fresh () =
  let module P = Skipper_lib.Pipeline in
  let names = Syndex.Mapper.names () in
  let shuffled =
    let rng = Random.State.make [| 2024 |] in
    List.map (fun n -> (Random.State.bits rng, n)) names
    |> List.sort compare |> List.map snd
  in
  List.iter
    (fun (w, rows, cols) ->
      let config = Tracking.Funcs.with_nproc w Tracking.Funcs.default_config in
      let compile () =
        P.compile_source ~frames:3 ~table:(Tracking.Funcs.table config)
          (Tracking.Funcs.source config)
      in
      List.iter
        (fun arch ->
          List.iter
            (fun (what, order) ->
              let c = compile () in
              List.iter
                (fun strategy ->
                  let m = Option.get (Syndex.Mapper.find strategy) in
                  let fresh () =
                    Syndex.Mapper.problem (Syndex.Cost.make ()) arch c.P.graph
                  in
                  let got = P.map ~strategy c arch in
                  let want = m.Syndex.Mapper.map (fresh ()) in
                  let label =
                    Printf.sprintf "%s W=%d %s order, %s" (Archi.name arch) w
                      what strategy
                  in
                  Alcotest.(check bool) (label ^ ": schedule") true (got = want);
                  Alcotest.(check string) (label ^ ": macro-code")
                    (Executive.Macro.emit c.P.graph ~placement:want.S.placement
                       ~arch)
                    (P.macro_code c got);
                  Alcotest.(check bool) (label ^ ": frontier") true
                    (P.frontier ~strategy c arch
                    = Syndex.Mapper.frontier m (fresh ())))
                order)
            [ ("forward", names); ("reverse", List.rev names);
              ("shuffled", shuffled) ])
        [ Archi.ring w; Archi.grid rows cols; Archi.star w; Archi.chain w;
          Archi.fully_connected w; chorded_ring w ])
    [ (8, 2, 4); (32, 4, 8) ]

(* Two compiles of one cached source share their front-end artifacts but
   no mapping work: each builds its own problem, while one compile's
   repeated maps return the schedule its problem keeps. *)
let test_problem_per_compile () =
  let module P = Skipper_lib.Pipeline in
  let config = Tracking.Funcs.with_nproc 8 Tracking.Funcs.default_config in
  let cache = Skipper_lib.Passes.create_cache () in
  let compile () =
    P.compile_source ~frames:3 ~cache ~table:(Tracking.Funcs.table config)
      (Tracking.Funcs.source config)
  in
  let c1 = compile () in
  let arch = Archi.ring 8 in
  let h1 = P.map ~strategy:"heft" c1 arch in
  let c2 = compile () in
  Alcotest.(check int) "a compile starts with no problem" 0
    (List.length c2.P.problems);
  let h2 = P.map ~strategy:"heft" c2 arch in
  Alcotest.(check bool) "same HEFT schedule" true (h1 = h2);
  Alcotest.(check bool) "built by each compile" true (h1 != h2);
  Alcotest.(check bool) "kept within a compile" true
    (P.map ~strategy:"heft" c1 arch == h1);
  Alcotest.(check int) "one problem per compile and machine" 1
    (List.length c1.P.problems);
  ignore (P.map ~strategy:"heft" c1 (Archi.ring 8));
  Alcotest.(check int) "another machine value, another problem" 2
    (List.length c1.P.problems)

(* -- mapping golden pin -- *)

(* The length and MD5 of every strategy's frontier JSON and macro-code for
   the tracking spec at nproc W in {8, 32}, on ring W and on grid 4x4,
   recorded before the bicriteria mapper stopped keeping every candidate
   schedule and the static scheduler stopped hashing dependencies; and at
   W = 128 on ring 128, where bicriteria's bounds rule out every interval
   candidate, recorded before it bounded them. Any changed float,
   placement, cut or frontier member shows up here. *)
let test_mapping_golden_pin () =
  let md5 s = Digest.to_hex (Digest.string s) in
  let module P = Skipper_lib.Pipeline in
  let lines =
    List.concat_map
      (fun (w, archs) ->
        let config = Tracking.Funcs.with_nproc w Tracking.Funcs.default_config in
        let c =
          P.compile_source ~frames:3 ~table:(Tracking.Funcs.table config)
            (Tracking.Funcs.source config)
        in
        List.concat_map
          (fun arch ->
            List.concat_map
              (fun strategy ->
                let m = Option.get (Syndex.Mapper.find strategy) in
                let pts =
                  Syndex.Mapper.frontier m
                    (Syndex.Mapper.problem (Syndex.Cost.make ()) arch c.P.graph)
                in
                let fj = Syndex.Mapper.frontier_json ~strategy ~arch pts in
                let mc = P.macro_code c (P.map ~strategy c arch) in
                let pin what text =
                  Printf.sprintf "%s W=%d %s %s %d %s" (Archi.name arch) w
                    strategy what (String.length text) (md5 text)
                in
                [ pin "frontier" fj; pin "macro" mc ])
              (Syndex.Mapper.names ()))
          archs)
      [ (8, [ Archi.ring 8; Archi.grid 4 4 ]);
        (32, [ Archi.ring 32; Archi.grid 4 4 ]);
        (128, [ Archi.ring 128 ]) ]
  in
  Alcotest.(check (list string)) "frontier and macro-code bytes"
    [
      "ring-8 W=8 heft frontier 179 034211f2a6ba008052188e11357b4849";
      "ring-8 W=8 heft macro 3289 04c728082c502e8dfdc3cbce6d68c410";
      "ring-8 W=8 canonical frontier 190 a3065a928a603976fb0031be6ced2974";
      "ring-8 W=8 canonical macro 3208 bc121eadb3dd4f692de6b8a38cf55f32";
      "ring-8 W=8 roundrobin frontier 188 de78d06ba7b7b5ee6825e33421a778cc";
      "ring-8 W=8 roundrobin macro 3507 ee576db71ed3b8b2c6f2c44ca76fb4ab";
      "ring-8 W=8 throughput frontier 191 6c25c6457a2569f62f4935c0489b55fb";
      "ring-8 W=8 throughput macro 3321 a1d94500cb8a2f06812a52ef64a4a4aa";
      "ring-8 W=8 bicriteria frontier 314 9824a5b546953462856a4fabef315a21";
      "ring-8 W=8 bicriteria macro 3321 a1d94500cb8a2f06812a52ef64a4a4aa";
      "grid-4x4 W=8 heft frontier 182 adca2fe7967fc168e26aee6918c9f87b";
      "grid-4x4 W=8 heft macro 3291 e29b5723cfd6de7c85d35cc681c88d44";
      "grid-4x4 W=8 canonical frontier 193 711407013083099f325d1d3e63ac0e2d";
      "grid-4x4 W=8 canonical macro 3316 564826cbafe0a626c7fecaf67e2fd9b1";
      "grid-4x4 W=8 roundrobin frontier 199 720032afb5b6b8d2ad55a106e0b7dee3";
      "grid-4x4 W=8 roundrobin macro 3815 6c3b83d27d2d6a5cb6df043c56b68f16";
      "grid-4x4 W=8 throughput frontier 199 a1d4dec768e0b811fa92daad45f36ee6";
      "grid-4x4 W=8 throughput macro 3680 987ff56fcc27c2993a7a4d3471711529";
      "grid-4x4 W=8 bicriteria frontier 454 e1399d4d94204651111ddef178e2de80";
      "grid-4x4 W=8 bicriteria macro 3615 0244bdeee57eb3ea99ae7d240e77e9f7";
      "ring-32 W=32 heft frontier 244 48fce2ea695c098beb10b2b04045afb4";
      "ring-32 W=32 heft macro 8761 8d841cb8582dd3d8d764a04fa7b7ccbc";
      "ring-32 W=32 canonical frontier 262 c050740bf45b3720edc640dcd1431ec5";
      "ring-32 W=32 canonical macro 9178 220c5e3eeedaf53f8faa1460d74632b8";
      "ring-32 W=32 roundrobin frontier 264 06b43b65285ee0fddff0b5f26163797c";
      "ring-32 W=32 roundrobin macro 9477 9c49299bc1b317caf0ae029419ea4b6a";
      "ring-32 W=32 throughput frontier 265 cec0e50b2ee3ef21c11c620c4395734b";
      "ring-32 W=32 throughput macro 9233 5bc723d6361c1c3112b6edb9d53e19cf";
      "ring-32 W=32 bicriteria frontier 456 17d3bebdecd2a61a4c0d945e97cec302";
      "ring-32 W=32 bicriteria macro 9293 7b6860faf27a263639cf035fd966a96d";
      "grid-4x4 W=32 heft frontier 241 675da384b3b057ce642cc96cff380535";
      "grid-4x4 W=32 heft macro 8646 356980e6404f1fa6cd0286d43449daca";
      "grid-4x4 W=32 canonical frontier 253 4033b7df378c43c0116d7e6ec681bb0d";
      "grid-4x4 W=32 canonical macro 8647 9da9a10dff4edabadf163379cce4bece";
      "grid-4x4 W=32 roundrobin frontier 252 f1cee46024f79a5286a29a4b3b378244";
      "grid-4x4 W=32 roundrobin macro 8946 a4d1df9bd3b1ccdb1e1f626c5b394986";
      "grid-4x4 W=32 throughput frontier 258 bf360ea13eda42122773b48bc8fa994f";
      "grid-4x4 W=32 throughput macro 8804 12c019caf321bf6d63af9992b51988a6";
      "grid-4x4 W=32 bicriteria frontier 617 1f3d2a4959a759f90dcb866840ed9e94";
      "grid-4x4 W=32 bicriteria macro 8538 76318100baa664d1020cf35d18565fd5";
      "ring-128 W=128 heft frontier 571 1068cfe8b5adc6123eecb8aad42bfba8";
      "ring-128 W=128 heft macro 30782 c44e9f918805fe8db90b5a2f77910cdb";
      "ring-128 W=128 canonical frontier 581 8eeeb55dce656e5b602438f61ad282ee";
      "ring-128 W=128 canonical macro 33268 39f8399ca745a5242b7a9c65514e2ec6";
      "ring-128 W=128 roundrobin frontier 581 106ede79fcd99ab947978199f2b7a596";
      "ring-128 W=128 roundrobin macro 33569 8bc773a9df955f3210ad1561311d802d";
      "ring-128 W=128 throughput frontier 560 b75201e6a6d05fb0f8a757387815837e";
      "ring-128 W=128 throughput macro 31844 bc7936fe1fa42322742bdbdc3f4ff060";
      "ring-128 W=128 bicriteria frontier 577 9def9d833bc056043164ae8911e4ba39";
      "ring-128 W=128 bicriteria macro 30782 c44e9f918805fe8db90b5a2f77910cdb";
    ]
    lines

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
  let s = heft_map cost (disconnected_pair ()) g in
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
    { (Syndex.Cost.make ()) with Syndex.Cost.node_cycles = (fun _ -> 1000.0) }
  in
  let g = tracking_like_graph ~nworkers:4 () in
  let arch = Archi.ring 4 in
  let s1 = heft_map uniform arch g in
  let s2 = heft_map uniform arch g in
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
      let s = heft_map cost (Archi.ring nprocs) g in
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
          QCheck_alcotest.to_alcotest prop_schedules_match_oracle;
          QCheck_alcotest.to_alcotest prop_bounds_below_score;
          Alcotest.test_case "mapping golden pin" `Quick test_mapping_golden_pin;
          Alcotest.test_case "shared problem matches fresh" `Quick
            test_shared_problem_matches_fresh;
          Alcotest.test_case "one problem per compile" `Quick
            test_problem_per_compile;
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
