type part = Whole | Dispatch | Collect | Emit | Store

type op = { op_id : int; node : int; part : part; cycles : float }

type dep = {
  dep_id : int;
  src_op : int;
  dst_op : int;
  bytes : int;
  edge : Procnet.Graph.edge option;
}

type t = {
  graph : Procnet.Graph.t;
  ops : op array;
  deps : dep list;
  preds : dep list array;
  succs : dep list array;
  colocated : (int * int) list;
  ops_of_node : int list array;
}

let of_graph (cost : Cost.t) g =
  let module G = Procnet.Graph in
  let nnodes = G.nnodes g in
  let ops = ref [] and next = ref 0 in
  let colocated = ref [] in
  let ops_of_node = Array.make nnodes [] in
  let add node part cycles =
    let op_id = !next in
    incr next;
    ops := { op_id; node; part; cycles } :: !ops;
    ops_of_node.(node) <- ops_of_node.(node) @ [ op_id ];
    op_id
  in
  (* in_op.(n) receives node n's ordinary input; out_op.(n) produces its
     output; extra maps handle the split ports. *)
  let in_op = Array.make nnodes (-1) and out_op = Array.make nnodes (-1) in
  let collect_op = Array.make nnodes (-1) and store_op = Array.make nnodes (-1) in
  let implicit_orders = ref [] in
  Array.iter
    (fun (node : G.node) ->
      let c = cost.Cost.node_cycles node in
      match node.kind with
      | G.DfMaster _ | G.TfMaster _ ->
          let d = add node.id Dispatch (c /. 2.0) in
          let col = add node.id Collect (c /. 2.0) in
          in_op.(node.id) <- d;
          out_op.(node.id) <- col;
          collect_op.(node.id) <- col;
          colocated := (d, col) :: !colocated;
          implicit_orders := (d, col) :: !implicit_orders
      | G.Mem _ ->
          let e = add node.id Emit (c /. 2.0) in
          let s = add node.id Store (c /. 2.0) in
          (* Emit is a source this iteration; Store a sink. *)
          in_op.(node.id) <- s;
          out_op.(node.id) <- e;
          store_op.(node.id) <- s;
          colocated := (e, s) :: !colocated
      | G.Input _ | G.Output _ | G.Compute _ | G.ScmCompute _ | G.ScmSplit _
      | G.ScmMerge _ | G.DfWorker _ | G.TfWorker _ | G.Join | G.Fork | G.Router _ ->
          let w = add node.id Whole c in
          in_op.(node.id) <- w;
          out_op.(node.id) <- w)
    (G.nodes g);
  let deps =
    List.map
      (fun (e : G.edge) ->
        let src =
          match (G.node g e.src).kind with
          | G.DfMaster _ | G.TfMaster _ when e.src_port = "task" -> in_op.(e.src)
          | _ -> out_op.(e.src)
        in
        let dst =
          match (G.node g e.dst).kind with
          | G.DfMaster _ | G.TfMaster _
            when e.dst_port = "result" || e.dst_port = "packet" ->
              collect_op.(e.dst)
          | G.Mem _ when e.dst_port = "update" -> store_op.(e.dst)
          | _ -> in_op.(e.dst)
        in
        (src, dst, cost.Cost.edge_bytes e, Some e))
      (G.edges g)
    @ List.map (fun (d, col) -> (d, col, 0, None)) !implicit_orders
    |> List.mapi (fun dep_id (src_op, dst_op, bytes, edge) ->
           { dep_id; src_op; dst_op; bytes; edge })
  in
  let nops = !next in
  let ops = Array.of_list (List.rev !ops) in
  let preds = Array.make nops [] and succs = Array.make nops [] in
  List.iter
    (fun d ->
      preds.(d.dst_op) <- d :: preds.(d.dst_op);
      succs.(d.src_op) <- d :: succs.(d.src_op))
    deps;
  let t = { graph = g; ops; deps; preds; succs; colocated = !colocated; ops_of_node } in
  (* Verify acyclicity (Kahn). *)
  let indeg = Array.map List.length preds in
  let q = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i q) indeg;
  let seen = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    incr seen;
    List.iter
      (fun d ->
        indeg.(d.dst_op) <- indeg.(d.dst_op) - 1;
        if indeg.(d.dst_op) = 0 then Queue.add d.dst_op q)
      succs.(u)
  done;
  if !seen <> nops then failwith "Dag.of_graph: scheduling graph is cyclic";
  t

let topological_order t =
  let indeg = Array.map List.length t.preds in
  let q = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i q) indeg;
  let order = ref [] in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    order := u :: !order;
    List.iter
      (fun (d : dep) ->
        indeg.(d.dst_op) <- indeg.(d.dst_op) - 1;
        if indeg.(d.dst_op) = 0 then Queue.add d.dst_op q)
      t.succs.(u)
  done;
  List.rev !order
