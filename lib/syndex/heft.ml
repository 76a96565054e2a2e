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

let map_dag arch (dag : Dag.t) =
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
  let op_proc = Array.make nops (-1) (* -1 until placed *) in
  let op_finish = Array.make nops 0.0 in
  let avail = Array.make nprocs 0.0 in
  (* split halves come in disjoint pairs: each op has at most one partner *)
  let partner = Array.make nops (-1) in
  List.iter
    (fun (a, b) ->
      partner.(a) <- b;
      partner.(b) <- a)
    dag.Dag.colocated;
  let procs = Archi.processors arch in
  let cycle_time p = procs.(p).Archi.cycle_time in
  (* Contention-free arrival estimate, calibrated with the same per-message
     kernel overheads the prediction engine charges (send on the producer,
     receive on the candidate); remote dependencies pay per-hop startup via
     Archi.transfer_time, local ones the memory-copy bandwidth. *)
  let preds = Array.map Array.of_list dag.Dag.preds in
  (* [Archi.transfer_time] walks the route, and every candidate processor
     of every op asks for one: memoise it per (src, dst, bytes) for this
     call, as rows of [nprocs] made on first use, NaN until computed. *)
  let route_costs = Hashtbl.create 4 in
  let transfer_time sp p bytes =
    let rows =
      match Hashtbl.find_opt route_costs bytes with
      | Some rows -> rows
      | None ->
          let rows = Array.make nprocs [||] in
          Hashtbl.replace route_costs bytes rows;
          rows
    in
    if Array.length rows.(sp) = 0 then rows.(sp) <- Array.make nprocs Float.nan;
    let c = rows.(sp).(p) in
    if Float.is_nan c then begin
      let c = Archi.transfer_time arch sp p bytes in
      rows.(sp).(p) <- c;
      c
    end
    else c
  in
  let est i p =
    let deps = preds.(i) in
    let acc = ref avail.(p) in
    for k = 0 to Array.length deps - 1 do
      let d = deps.(k) in
      let src = d.Dag.src_op in
      let arrival =
        match d.Dag.edge with
        | None -> op_finish.(src)
        | Some _ ->
            let sp = op_proc.(src) in
            let overheads =
              (Archi.send_overhead_cycles *. cycle_time sp)
              +. (Archi.recv_overhead_cycles *. cycle_time p)
            in
            if sp = p then
              op_finish.(src) +. overheads
              +. (float_of_int d.Dag.bytes /. Archi.local_copy_bandwidth)
            else
              op_finish.(src) +. overheads
              +. transfer_time sp p d.Dag.bytes
      in
      acc := Float.max !acc arrival
    done;
    !acc
  in
  let schedule_op i =
    let best_f = ref 0.0 and best_p = ref (-1) in
    let consider p =
      (* skip processors unreachable from 0 *)
      if p = 0 || Archi.first_link arch 0 p >= 0 then begin
        let s = est i p in
        let f = s +. (dag.Dag.ops.(i).Dag.cycles *. cycle_time p) in
        (* equal finish times break towards the lowest processor id
           (candidates are scanned in ascending order) *)
        if not (!best_p >= 0 && (!best_f < f || (!best_f = f && !best_p < p))) then begin
          best_f := f;
          best_p := p
        end
      end
    in
    let forced = partner.(i) in
    if forced >= 0 && op_proc.(forced) >= 0 then consider op_proc.(forced)
    else
      for p = 0 to nprocs - 1 do
        consider p
      done;
    if !best_p < 0 then failwith "Heft.map: no reachable processor";
    let p = !best_p in
    op_proc.(i) <- p;
    op_finish.(i) <- !best_f;
    avail.(p) <- !best_f
  in
  (* Place ops respecting precedence. The ready ops form a FIFO: those
     ready at the start in [order]'s order, then after each placement the
     successors it made ready, again in [order]'s order. *)
  let rank_pos = Array.make nops 0 in
  List.iteri (fun pos i -> rank_pos.(i) <- pos) order;
  let pending = Array.map List.length dag.Dag.preds in
  let ready = Queue.create () in
  List.iter (fun i -> if pending.(i) = 0 then Queue.add i ready) order;
  let scheduled = ref 0 in
  while not (Queue.is_empty ready) do
    let i = Queue.pop ready in
    schedule_op i;
    incr scheduled;
    let fresh =
      List.fold_left
        (fun acc (d : Dag.dep) ->
          let j = d.Dag.dst_op in
          pending.(j) <- pending.(j) - 1;
          if pending.(j) = 0 then j :: acc else acc)
        [] dag.Dag.succs.(i)
    in
    List.iter (fun j -> Queue.add j ready)
      (List.sort (fun a b -> compare rank_pos.(a) rank_pos.(b)) fresh)
  done;
  if !scheduled < nops then failwith "Heft.map: cyclic scheduling graph";
  (* Derive the per-node placement (colocated halves agree by construction)
     and hand the final timing to the shared prediction engine, so HEFT and
     fixed placements produce comparable schedules (including static link
     contention). The EFT search above used contention-free estimates. *)
  let placement = Array.make (Procnet.Graph.nnodes dag.Dag.graph) 0 in
  Array.iteri
    (fun node ops ->
      match ops with
      | op :: _ -> placement.(node) <- op_proc.(op)
      | [] -> ())
    dag.Dag.ops_of_node;
  Place.of_placement_dag arch dag placement

let map cost arch g = map_dag arch (Dag.of_graph cost g)
