(* Parallel work processes: df/tf workers and scm computes. Pipeline
   [Compute] stages stay with the control processes: shipping the full
   dataflow value to another processor usually costs more than it saves. *)
let is_worker (node : Procnet.Graph.node) =
  match node.kind with
  | Procnet.Graph.DfWorker _ | Procnet.Graph.TfWorker _ | Procnet.Graph.ScmCompute _ ->
      true
  | _ -> false

let canonical g arch =
  let nprocs = Archi.nprocs arch in
  let placement = Array.make (Procnet.Graph.nnodes g) 0 in
  let next = ref 0 in
  Array.iter
    (fun (node : Procnet.Graph.node) ->
      if is_worker node then begin
        (* Fig. 1 layout: worker i on P(i+1) around the ring, wrapping back
           to the master's processor last. *)
        let p = (!next + 1) mod nprocs in
        incr next;
        placement.(node.id) <- p
      end)
    (Procnet.Graph.nodes g);
  placement

let round_robin g arch =
  let nprocs = Archi.nprocs arch in
  Array.init (Procnet.Graph.nnodes g) (fun i -> i mod nprocs)

(* Store-and-forward transfer with static per-link reservation: the same
   first-fit link book ([Support.Intervals]) the machine simulator uses, so
   the predicted communication schedule mirrors what the executive will do.
   Each hop is charged [Archi.hop_time], placed around the link's earlier
   reservations ([link_busy] is indexed by link id); the scheduler backfills,
   so it never prunes. Returns the arrival time and the per-hop slots for
   the schedule's link occupancy accounting. *)
let reserve_transfer arch link_busy ~src ~dst ~bytes ~depart =
  let arrival, hops =
    Archi.fold_route arch src dst
      (fun (depart, hops) i (link : Archi.link) ->
        let duration = Archi.hop_time link bytes in
        let start =
          Support.Intervals.reserve link_busy.(i) ~earliest:depart ~duration
        in
        ( start +. duration,
          { Schedule.hop_src = link.Archi.src; hop_dst = link.Archi.dst;
            hop_start = start; hop_finish = start +. duration }
          :: hops ))
      (depart, [])
  in
  (arrival, List.rev hops)

let check_placement arch g placement =
  if Array.length placement <> Procnet.Graph.nnodes g then
    invalid_arg "Place.of_placement: placement length mismatch";
  Array.iter
    (fun p ->
      if p < 0 || p >= Archi.nprocs arch then
        invalid_arg "Place.of_placement: placement names a missing processor")
    placement

let of_placement_dag arch dag placement =
  let g = dag.Dag.graph in
  check_placement arch g placement;
  let nops = Array.length dag.Dag.ops in
  let op_proc =
    Array.map (fun (op : Dag.op) -> placement.(op.Dag.node)) dag.Dag.ops
  in
  let op_start = Array.make nops 0.0 and op_finish = Array.make nops 0.0 in
  let avail = Array.make (Archi.nprocs arch) 0.0 in
  let link_busy =
    Array.init (Archi.nlinks arch) (fun _ -> Support.Intervals.create ())
  in
  let cycle_time p = (Archi.processors arch).(p).Archi.cycle_time in
  (* per cross-processor dependency, by dep id: (depart, arrival, hop slots) *)
  let transfers = Array.make (List.length dag.Dag.deps) None in
  List.iter
    (fun i ->
      let p = op_proc.(i) in
      let est =
        List.fold_left
          (fun acc (d : Dag.dep) ->
            let src = d.Dag.src_op in
            let arrival =
              match d.Dag.edge with
              | None -> op_finish.(src) (* intra-process ordering, no message *)
              | Some _ ->
                  let sp = op_proc.(src) in
                  let send_oh = Archi.send_overhead_cycles *. cycle_time sp in
                  let recv_oh = Archi.recv_overhead_cycles *. cycle_time p in
                  if sp = p then
                    op_finish.(src) +. send_oh
                    +. (float_of_int d.Dag.bytes /. Archi.local_copy_bandwidth)
                    +. recv_oh
                  else begin
                    let depart = op_finish.(src) +. send_oh in
                    let arrival, hops =
                      reserve_transfer arch link_busy ~src:sp ~dst:p
                        ~bytes:d.Dag.bytes ~depart
                    in
                    transfers.(d.Dag.dep_id) <- Some (depart, arrival, hops);
                    arrival +. recv_oh
                  end
            in
            Float.max acc arrival)
          avail.(p) dag.Dag.preds.(i)
      in
      op_start.(i) <- est;
      op_finish.(i) <- est +. (dag.Dag.ops.(i).Dag.cycles *. cycle_time p);
      avail.(p) <- op_finish.(i))
    (Dag.topological_order dag);
  let ops =
    Array.to_list dag.Dag.ops
    |> List.map (fun (op : Dag.op) ->
           {
             Schedule.node = op.Dag.node;
             part = op.Dag.part;
             proc = op_proc.(op.Dag.op_id);
             start = op_start.(op.Dag.op_id);
             finish = op_finish.(op.Dag.op_id);
           })
    |> List.sort (fun (a : Schedule.op_slot) (b : Schedule.op_slot) ->
           match Float.compare a.Schedule.start b.Schedule.start with
           | 0 -> Int.compare a.Schedule.node b.Schedule.node
           | c -> c)
  in
  let comms =
    List.filter_map
      (fun (d : Dag.dep) ->
        match (d.Dag.edge, transfers.(d.Dag.dep_id)) with
        | Some e, Some (depart, arrival, hops) ->
            let from_proc = op_proc.(d.Dag.src_op)
            and to_proc = op_proc.(d.Dag.dst_op) in
            Some
              {
                Schedule.edge = e;
                from_proc;
                to_proc;
                bytes = d.Dag.bytes;
                start = depart;
                finish = arrival;
                hops;
              }
        | _ -> None)
      dag.Dag.deps
    |> List.sort (fun (a : Schedule.comm_slot) (b : Schedule.comm_slot) ->
           match Float.compare a.Schedule.start b.Schedule.start with
           | 0 -> Int.compare a.Schedule.bytes b.Schedule.bytes
           | c -> c)
  in
  {
    Schedule.graph = g;
    arch;
    placement = Array.copy placement;
    ops;
    comms;
    makespan = Array.fold_left Float.max 0.0 op_finish;
    pipeline = None;
  }

let of_placement cost arch g placement =
  check_placement arch g placement;
  of_placement_dag arch (Dag.of_graph cost g) placement
