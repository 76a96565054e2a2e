(* Mean link characteristics used by rank computation (placement-agnostic). *)
let mean_link_costs arch =
  match Archi.links arch with
  | [] -> (0.0, infinity)
  | links ->
      let n = float_of_int (List.length links) in
      let startup = List.fold_left (fun acc l -> acc +. l.Archi.startup) 0.0 links /. n in
      let bw = List.fold_left (fun acc l -> acc +. l.Archi.bandwidth) 0.0 links /. n in
      (startup, bw)

let mean_cycle_time arch =
  let procs = Archi.processors arch in
  Array.fold_left (fun acc p -> acc +. p.Archi.cycle_time) 0.0 procs
  /. float_of_int (Array.length procs)

let upward_ranks arch (dag : Dag.t) =
  let startup, bw = mean_link_costs arch in
  let ct = mean_cycle_time arch in
  let nops = Array.length dag.Dag.ops in
  let ranks = Array.make nops nan in
  let rec rank i =
    if not (Float.is_nan ranks.(i)) then ranks.(i)
    else begin
      let op = dag.Dag.ops.(i) in
      let self = op.Dag.cycles *. ct in
      let tail =
        List.fold_left
          (fun best (d : Dag.dep) ->
            let comm =
              if bw = infinity then 0.0
              else startup +. (float_of_int d.Dag.bytes /. bw)
            in
            Float.max best (comm +. rank d.Dag.dst_op))
          0.0 dag.Dag.succs.(i)
      in
      ranks.(i) <- self +. tail;
      ranks.(i)
    end
  in
  for i = 0 to nops - 1 do
    ignore (rank i)
  done;
  ranks

let map cost arch g =
  let dag = Dag.of_graph cost g in
  let nops = Array.length dag.Dag.ops in
  let nprocs = Archi.nprocs arch in
  let ranks = upward_ranks arch dag in
  (* Schedule ops by decreasing rank, but never before all predecessors are
     placed (rank order is consistent with topological order on a DAG when
     communication costs are non-negative; we enforce it anyway). Equal
     ranks break deterministically towards the lowest op id, so mapper
     output is byte-stable across platforms and list orderings. *)
  let order =
    List.sort
      (fun a b ->
        match compare ranks.(b) ranks.(a) with 0 -> compare a b | c -> c)
      (Dag.topological_order dag)
  in
  let placed = Array.make nops false in
  let op_proc = Array.make nops (-1) in
  let op_start = Array.make nops 0.0 and op_finish = Array.make nops 0.0 in
  let avail = Array.make nprocs 0.0 in
  let forced_proc i =
    List.fold_left
      (fun acc (a, b) ->
        if a = i && placed.(b) then Some op_proc.(b)
        else if b = i && placed.(a) then Some op_proc.(a)
        else acc)
      None dag.Dag.colocated
  in
  let cycle_time p = (Archi.processors arch).(p).Archi.cycle_time in
  (* Contention-free arrival estimate, calibrated with the same per-message
     kernel overheads the prediction engine charges (send on the producer,
     receive on the candidate); remote dependencies pay per-hop startup via
     Archi.transfer_time, local ones the memory-copy bandwidth. *)
  let est i p =
    List.fold_left
      (fun acc (d : Dag.dep) ->
        let src = d.Dag.src_op in
        let arrival =
          match d.Dag.edge with
          | None -> op_finish.(src)
          | Some _ ->
              let sp = op_proc.(src) in
              let overheads =
                (Cost.send_overhead_cycles *. cycle_time sp)
                +. (Cost.recv_overhead_cycles *. cycle_time p)
              in
              if sp = p then
                op_finish.(src) +. overheads
                +. (float_of_int d.Dag.bytes /. Cost.local_copy_bandwidth)
              else
                op_finish.(src) +. overheads
                +. Archi.transfer_time arch sp p d.Dag.bytes
        in
        Float.max acc arrival)
      avail.(p) dag.Dag.preds.(i)
  in
  let schedule_op i =
    let candidates =
      match forced_proc i with Some p -> [ p ] | None -> List.init nprocs Fun.id
    in
    let best =
      List.fold_left
        (fun best p ->
          if p <> 0 && Archi.first_link arch 0 p < 0 then
            best (* unreachable processor *)
          else
            let s = est i p in
            let f = s +. (dag.Dag.ops.(i).Dag.cycles *. cycle_time p) in
            (* equal finish times break towards the lowest processor id
               (candidates are scanned in ascending order) *)
            match best with
            | Some (_, bf, bp) when bf < f || (bf = f && bp < p) -> best
            | _ -> Some (s, f, p))
        None candidates
    in
    match best with
    | None -> failwith "Heft.map: no reachable processor"
    | Some (s, f, p) ->
        placed.(i) <- true;
        op_proc.(i) <- p;
        op_start.(i) <- s;
        op_finish.(i) <- f;
        avail.(p) <- f
  in
  (* Place ops respecting precedence: repeatedly take the highest-ranked op
     whose predecessors are all placed. *)
  let remaining = ref order in
  while !remaining <> [] do
    let ready, blocked =
      List.partition
        (fun i -> List.for_all (fun (d : Dag.dep) -> placed.(d.Dag.src_op)) dag.Dag.preds.(i))
        !remaining
    in
    match ready with
    | [] -> failwith "Heft.map: cyclic scheduling graph"
    | i :: rest ->
        schedule_op i;
        remaining := rest @ blocked
  done;
  (* Derive the per-node placement (colocated halves agree by construction)
     and hand the final timing to the shared prediction engine, so HEFT and
     fixed placements produce comparable schedules (including static link
     contention). The EFT search above used contention-free estimates. *)
  let placement = Array.make (Procnet.Graph.nnodes g) 0 in
  Array.iteri
    (fun node ops ->
      match ops with
      | op :: _ -> placement.(node) <- op_proc.(op)
      | [] -> ())
    dag.Dag.ops_of_node;
  Place.of_placement_dag arch dag placement
