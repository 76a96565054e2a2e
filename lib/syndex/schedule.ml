type op_slot = {
  node : int;
  part : Dag.part;
  proc : int;
  start : float;
  finish : float;
}

type hop_slot = {
  hop_src : int;
  hop_dst : int;
  hop_start : float;
  hop_finish : float;
}

type comm_slot = {
  edge : Procnet.Graph.edge;
  from_proc : int;
  to_proc : int;
  bytes : int;
  start : float;
  finish : float;
  hops : hop_slot list;
}

type stage_interval = {
  stage_proc : int;
  stage_nodes : int list;
  stage_load : float;
}

type pipelining = {
  frames_in_flight : int;
  predicted_period : float;
  stages : stage_interval list;
}

type t = {
  graph : Procnet.Graph.t;
  arch : Archi.t;
  placement : int array;
  ops : op_slot list;
  comms : comm_slot list;
  makespan : float;
  pipeline : pipelining option;
}

(* Steady-state period bound of the schedule when one frame is issued per
   iteration: the busiest resource (processor compute load, or directed-link
   occupancy summed over hop reservations) limits the throughput. *)
let resource_period t =
  let nprocs = Archi.nprocs t.arch in
  let proc_load = Array.make nprocs 0.0 in
  List.iter
    (fun op -> proc_load.(op.proc) <- proc_load.(op.proc) +. (op.finish -. op.start))
    t.ops;
  (* a hop joins adjacent processors, so its link is the first (and only)
     link of their route *)
  let link_load = Array.make (Archi.nlinks t.arch) 0.0 in
  List.iter
    (fun c ->
      List.iter
        (fun h ->
          let i = Archi.first_link t.arch h.hop_src h.hop_dst in
          link_load.(i) <- link_load.(i) +. (h.hop_finish -. h.hop_start))
        c.hops)
    t.comms;
  let busiest = Array.fold_left Float.max 0.0 proc_load in
  Array.fold_left Float.max busiest link_load

let period t =
  match t.pipeline with
  | Some p -> p.predicted_period
  | None -> resource_period t

let validate t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let by_proc : (int, op_slot list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun op -> Hashtbl.replace by_proc op.proc (op :: (Option.value ~default:[] (Hashtbl.find_opt by_proc op.proc))))
    t.ops;
  let overlap =
    Hashtbl.fold
      (fun proc ops acc ->
        match acc with
        | Some _ -> acc
        | None ->
            let sorted =
              List.sort (fun (a : op_slot) (b : op_slot) -> compare a.start b.start) ops
            in
            let rec scan : op_slot list -> _ = function
              | a :: (b :: _ as rest) ->
                  if a.finish > b.start +. 1e-12 then Some (proc, a, b) else scan rest
              | _ -> None
            in
            scan sorted)
      by_proc None
  in
  match overlap with
  | Some (proc, a, b) ->
      err "processor %d: op for node %d overlaps op for node %d" proc a.node b.node
  | None -> (
      let placement_bad =
        List.find_opt (fun (op : op_slot) -> t.placement.(op.node) <> op.proc) t.ops
      in
      match placement_bad with
      | Some op -> err "op for node %d not on its placed processor" op.node
      | None -> (
          let comm_bad =
            List.find_opt
              (fun c ->
                let e = c.edge in
                t.placement.(e.Procnet.Graph.src) <> c.from_proc
                || t.placement.(e.Procnet.Graph.dst) <> c.to_proc)
              t.comms
          in
          match comm_bad with
          | Some c ->
              err "comm %d->%d does not join its endpoints' processors"
                c.edge.Procnet.Graph.src c.edge.Procnet.Graph.dst
          | None ->
              let route_bad =
                List.find_opt
                  (fun c ->
                    List.exists
                      (fun h ->
                        Archi.link_between t.arch h.hop_src h.hop_dst = None)
                      c.hops)
                  t.comms
              in
              (match route_bad with
              | Some c ->
                  err "comm %d->%d routed over a missing link"
                    c.edge.Procnet.Graph.src c.edge.Procnet.Graph.dst
              | None -> Ok ())))

let link_orders t =
  let table = Hashtbl.create 16 in
  List.iter
    (fun c ->
      List.iter
        (fun h ->
          let key = (h.hop_src, h.hop_dst) in
          Hashtbl.replace table key
            (c :: Option.value ~default:[] (Hashtbl.find_opt table key)))
        c.hops)
    t.comms;
  Hashtbl.fold
    (fun key comms acc ->
      (key, List.sort (fun a b -> compare (a.start, a.edge) (b.start, b.edge)) comms)
      :: acc)
    table []
  |> List.sort compare

(* Deadlock freedom of the static executive: build the union of
   (a) op precedence induced by message causality (producer op -> comm ->
   consumer op) and (b) per-link FIFO order between consecutive comms, and
   check it is acyclic. Vertices: ops keyed by (node, part) and comms keyed
   by identity. *)
let deadlock_free t =
  let comm_key c = `Comm (c.edge.Procnet.Graph.src, c.edge.Procnet.Graph.src_port,
                          c.edge.Procnet.Graph.dst, c.edge.Procnet.Graph.dst_port) in
  let vertices = Hashtbl.create 64 in
  let n = ref 0 in
  let vid k =
    match Hashtbl.find_opt vertices k with
    | Some i -> i
    | None ->
        let i = !n in
        incr n;
        Hashtbl.add vertices k i;
        i
  in
  let edges = ref [] in
  let add_edge a b = edges := (vid a, vid b) :: !edges in
  (* Producer -> comm -> consumer, resolving split control operations by the
     port the channel uses (mirrors Dag.of_graph): a master's "task" output
     leaves its Dispatch half while "result"/"packet" inputs enter its
     Collect half; a mem's "state" output leaves Emit, "update" enters
     Store. *)
  let node_kind n = (Procnet.Graph.node t.graph n).Procnet.Graph.kind in
  let producer_part node port =
    match node_kind node with
    | Procnet.Graph.DfMaster _ | Procnet.Graph.TfMaster _ ->
        if port = "task" then Dag.Dispatch else Dag.Collect
    | Procnet.Graph.Mem _ -> Dag.Emit
    | _ -> Dag.Whole
  in
  let consumer_part node port =
    match node_kind node with
    | Procnet.Graph.DfMaster _ | Procnet.Graph.TfMaster _ ->
        if port = "result" || port = "packet" then Dag.Collect else Dag.Dispatch
    | Procnet.Graph.Mem _ -> Dag.Store
    | _ -> Dag.Whole
  in
  List.iter
    (fun c ->
      let e = c.edge in
      add_edge
        (`Op (e.Procnet.Graph.src, producer_part e.Procnet.Graph.src e.Procnet.Graph.src_port))
        (comm_key c);
      add_edge (comm_key c)
        (`Op (e.Procnet.Graph.dst, consumer_part e.Procnet.Graph.dst e.Procnet.Graph.dst_port)))
    t.comms;
  (* Intra-process ordering: a master dispatches before it collects. *)
  List.iter
    (fun (op : op_slot) ->
      if op.part = Dag.Dispatch then
        add_edge (`Op (op.node, Dag.Dispatch)) (`Op (op.node, Dag.Collect)))
    t.ops;
  List.iter
    (fun (_, comms) ->
      let rec chain = function
        | a :: (b :: _ as rest) ->
            add_edge (comm_key a) (comm_key b);
            chain rest
        | _ -> ()
      in
      chain comms)
    (link_orders t);
  (* Cycle check via DFS over the collected edges. *)
  let nv = !n in
  let adj = Array.make nv [] in
  List.iter (fun (a, b) -> adj.(a) <- b :: adj.(a)) !edges;
  let color = Array.make nv 0 in
  let rec dfs u =
    if color.(u) = 1 then false
    else if color.(u) = 2 then true
    else begin
      color.(u) <- 1;
      let ok = List.for_all dfs adj.(u) in
      color.(u) <- 2;
      ok
    end
  in
  let acyclic = ref true in
  for u = 0 to nv - 1 do
    if color.(u) = 0 && not (dfs u) then acyclic := false
  done;
  !acyclic

let gantt t =
  let width = 72 in
  let buf = Buffer.create 512 in
  let horizon = if t.makespan > 0.0 then t.makespan else 1.0 in
  Buffer.add_string buf
    (Printf.sprintf "predicted schedule: 0 .. %.3f ms\n" (horizon *. 1e3));
  let nprocs = Archi.nprocs t.arch in
  for p = 0 to nprocs - 1 do
    let cells = Bytes.make width '.' in
    List.iter
      (fun (op : op_slot) ->
        if op.proc = p then begin
          let c0 = int_of_float (op.start /. horizon *. float_of_int width) in
          let c1 = int_of_float (op.finish /. horizon *. float_of_int width) in
          let mark =
            match (Procnet.Graph.node t.graph op.node).Procnet.Graph.kind with
            | Procnet.Graph.DfWorker _ | Procnet.Graph.TfWorker _
            | Procnet.Graph.ScmCompute _ ->
                'w'
            | Procnet.Graph.Compute _ -> '#'
            | _ -> '+'
          in
          for c = max 0 c0 to min (width - 1) (max c0 c1) do
            Bytes.set cells c mark
          done
        end)
      t.ops;
    Buffer.add_string buf (Printf.sprintf "P%-3d |%s|\n" p (Bytes.to_string cells))
  done;
  Buffer.contents buf

let pp_summary ppf t =
  let nprocs = Archi.nprocs t.arch in
  let used = Array.make nprocs false in
  Array.iter (fun p -> used.(p) <- true) t.placement;
  let nused = Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 used in
  Format.fprintf ppf
    "@[<v2>schedule for %s on %s:@ %d processes on %d/%d processors,@ %d \
     communications,@ predicted latency %.3f ms"
    (Procnet.Graph.name t.graph) (Archi.name t.arch)
    (Procnet.Graph.nnodes t.graph) nused nprocs (List.length t.comms)
    (t.makespan *. 1e3);
  (match t.pipeline with
  | Some p ->
      Format.fprintf ppf ",@ pipelined: %d stages, %d frames in flight, period %.3f ms"
        (List.length p.stages) p.frames_in_flight (p.predicted_period *. 1e3)
  | None -> ());
  Format.fprintf ppf "@]"

let nops t = List.length t.ops
let ncomms t = List.length t.comms
