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

let check_placement arch g placement =
  if Array.length placement <> Procnet.Graph.nnodes g then
    invalid_arg "Place.of_placement: placement length mismatch";
  Array.iter
    (fun p ->
      if p < 0 || p >= Archi.nprocs arch then
        invalid_arg "Place.of_placement: placement names a missing processor")
    placement

(* Everything one list schedule of [dag] on [arch] writes, allocated once
   and overwritten by every [run]. Per op: processor, start and finish;
   per processor: when it is free and its compute load so far; per
   dependency id: its departure, its first and last hop in the hop store
   (-1 when it made no transfer); the hop store itself, as parallel
   arrays that grow by doubling; one link book per link. *)
type scratch = {
  arch : Archi.t;
  dag : Dag.t;
  order : int array;
  preds : Dag.dep array array;
  deps : Dag.dep array;
  proc : int array;
  start : float array;
  finish : float array;
  avail : float array;
  proc_load : float array;
  depart : float array;
  dep_first : int array;
  dep_last : int array;
  mutable hop_link : int array;
  mutable hop_start : float array;
  mutable hop_finish : float array;
  mutable nhops : int;
  books : Support.Intervals.t array;
  link_load : float array;
}

let scratch arch dag =
  let nops = Array.length dag.Dag.ops
  and ndeps = List.length dag.Dag.deps
  and nprocs = Archi.nprocs arch in
  let hops = max 16 ndeps in
  {
    arch;
    dag;
    order = Array.of_list (Dag.topological_order dag);
    preds = Array.map Array.of_list dag.Dag.preds;
    deps = Array.of_list dag.Dag.deps;
    proc = Array.make nops 0;
    start = Array.make nops 0.0;
    finish = Array.make nops 0.0;
    avail = Array.make nprocs 0.0;
    proc_load = Array.make nprocs 0.0;
    depart = Array.make ndeps 0.0;
    dep_first = Array.make ndeps (-1);
    dep_last = Array.make ndeps (-1);
    hop_link = Array.make hops 0;
    hop_start = Array.make hops 0.0;
    hop_finish = Array.make hops 0.0;
    nhops = 0;
    books = Array.init (Archi.nlinks arch) (fun _ -> Support.Intervals.create ());
    link_load = Array.make (Archi.nlinks arch) 0.0;
  }

let grow_hops sc =
  let n = Array.length sc.hop_link in
  let grow a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  sc.hop_link <- grow sc.hop_link 0;
  sc.hop_start <- grow sc.hop_start 0.0;
  sc.hop_finish <- grow sc.hop_finish 0.0

(* Store-and-forward transfer of dependency [d] from [src] to [dst] with
   static per-link reservation: the first-fit link book
   ([Support.Intervals]) the machine simulator uses, so the predicted
   communication schedule mirrors what the executive will do. The route is
   walked through [Archi.first_link], as the simulator walks it; each hop
   is charged [Archi.hop_time], placed around the link's earlier
   reservations (the scheduler backfills, so it never prunes) and appended
   to the hop store. Returns the arrival time. Inlined into [run], so its
   floats stay unboxed. *)
let[@inline] transfer sc (d : Dag.dep) ~src ~dst ~depart =
  let id = d.Dag.dep_id in
  sc.depart.(id) <- depart;
  sc.dep_first.(id) <- sc.nhops;
  let u = ref src and at = ref depart in
  while !u <> dst do
    let l = Archi.first_link sc.arch !u dst in
    if l < 0 then failwith (Printf.sprintf "Archi.route: no path %d -> %d" src dst);
    let link = Archi.link_at sc.arch l in
    let duration = Archi.hop_time link d.Dag.bytes in
    let start = Support.Intervals.reserve sc.books.(l) ~earliest:!at ~duration in
    let finish = start +. duration in
    if sc.nhops = Array.length sc.hop_link then grow_hops sc;
    sc.hop_link.(sc.nhops) <- l;
    sc.hop_start.(sc.nhops) <- start;
    sc.hop_finish.(sc.nhops) <- finish;
    sc.nhops <- sc.nhops + 1;
    at := finish;
    u := link.Archi.dst
  done;
  sc.dep_last.(id) <- sc.nhops - 1;
  !at

(* List scheduling in topological order: each op starts when its
   processor is free and every predecessor's data has arrived. An op
   starts at or after the finish of the op scheduled before it on its
   processor, so each processor's ops start in scheduling order and its
   load can be summed as they are scheduled (see [score]). *)
let run sc placement =
  let arch = sc.arch and dag = sc.dag in
  check_placement arch dag.Dag.graph placement;
  let ops = dag.Dag.ops and procs = Archi.processors arch in
  Array.iteri (fun i (op : Dag.op) -> sc.proc.(i) <- placement.(op.Dag.node)) ops;
  Array.fill sc.avail 0 (Array.length sc.avail) 0.0;
  Array.fill sc.proc_load 0 (Array.length sc.proc_load) 0.0;
  Array.fill sc.dep_first 0 (Array.length sc.dep_first) (-1);
  Array.iter Support.Intervals.clear sc.books;
  sc.nhops <- 0;
  for k = 0 to Array.length sc.order - 1 do
    let i = sc.order.(k) in
    let p = sc.proc.(i) in
    let cycle_time = procs.(p).Archi.cycle_time in
    let preds = sc.preds.(i) in
    let est = ref sc.avail.(p) in
    for m = 0 to Array.length preds - 1 do
      let d = preds.(m) in
      let src = d.Dag.src_op in
      let arrival =
        match d.Dag.edge with
        | None -> sc.finish.(src) (* intra-process ordering, no message *)
        | Some _ ->
            let sp = sc.proc.(src) in
            let send_oh = Archi.send_overhead_cycles *. procs.(sp).Archi.cycle_time in
            let recv_oh = Archi.recv_overhead_cycles *. cycle_time in
            if sp = p then
              sc.finish.(src) +. send_oh
              +. (float_of_int d.Dag.bytes /. Archi.local_copy_bandwidth)
              +. recv_oh
            else
              transfer sc d ~src:sp ~dst:p ~depart:(sc.finish.(src) +. send_oh)
              +. recv_oh
      in
      est := Float.max !est arrival
    done;
    let finish = !est +. (ops.(i).Dag.cycles *. cycle_time) in
    sc.start.(i) <- !est;
    sc.finish.(i) <- finish;
    sc.avail.(p) <- finish;
    sc.proc_load.(p) <- sc.proc_load.(p) +. (finish -. !est)
  done

(* [Array.fold_left Float.max init a], in a loop whose float stays unboxed *)
let max_from init a =
  let m = ref init in
  for i = 0 to Array.length a - 1 do
    m := Float.max !m a.(i)
  done;
  !m

let makespan sc = max_from 0.0 sc.finish

(* The transfers [run] made, in the comm list's order: by departure, then
   bytes, then dependency id (the dependency order [List.sort] keeps) *)
let sorted_transfers sc =
  let n =
    Array.fold_left (fun n first -> if first >= 0 then n + 1 else n) 0 sc.dep_first
  in
  let ids = Array.make n 0 and k = ref 0 in
  Array.iteri
    (fun id first ->
      if first >= 0 then begin
        ids.(!k) <- id;
        incr k
      end)
    sc.dep_first;
  Array.stable_sort
    (fun a b ->
      match Float.compare sc.depart.(a) sc.depart.(b) with
      | 0 -> Int.compare sc.deps.(a).Dag.bytes sc.deps.(b).Dag.bytes
      | c -> c)
    ids;
  ids

(* [Schedule.resource_period] of the schedule [of_placement_dag] would
   build, without building it. That sums each processor's op lengths in
   start order, ties by node: [run] summed them in scheduling order, which
   differs only among ops that start together, and there every op but the
   last scheduled has length [+0.], which changes no bit of a
   non-negative sum. It sums link loads over the comms in
   (departure, bytes) order, ties in dependency order, each comm's hops in
   route order: the same order here, from the hop store. *)
let score sc =
  let load = sc.link_load in
  Array.fill load 0 (Array.length load) 0.0;
  Array.iter
    (fun id ->
      for h = sc.dep_first.(id) to sc.dep_last.(id) do
        let l = sc.hop_link.(h) in
        load.(l) <- load.(l) +. (sc.hop_finish.(h) -. sc.hop_start.(h))
      done)
    (sorted_transfers sc);
  (makespan sc, max_from (max_from 0.0 sc.proc_load) load)

(* The schedule [run] left in [sc]: the one place op slots, comm slots and
   hop slots are made. *)
let schedule sc placement =
  let dag = sc.dag in
  let ops =
    Array.to_list dag.Dag.ops
    |> List.map (fun (op : Dag.op) ->
           {
             Schedule.node = op.Dag.node;
             part = op.Dag.part;
             proc = sc.proc.(op.Dag.op_id);
             start = sc.start.(op.Dag.op_id);
             finish = sc.finish.(op.Dag.op_id);
           })
    |> List.sort (fun (a : Schedule.op_slot) (b : Schedule.op_slot) ->
           match Float.compare a.Schedule.start b.Schedule.start with
           | 0 -> Int.compare a.Schedule.node b.Schedule.node
           | c -> c)
  in
  let hops id =
    let rec from h acc =
      if h < sc.dep_first.(id) then acc
      else
        let link = Archi.link_at sc.arch sc.hop_link.(h) in
        from (h - 1)
          ({ Schedule.hop_src = link.Archi.src; hop_dst = link.Archi.dst;
             hop_start = sc.hop_start.(h); hop_finish = sc.hop_finish.(h) }
          :: acc)
    in
    from sc.dep_last.(id) []
  in
  let comms =
    List.filter_map
      (fun (d : Dag.dep) ->
        let id = d.Dag.dep_id in
        match d.Dag.edge with
        | Some e when sc.dep_first.(id) >= 0 ->
            Some
              {
                Schedule.edge = e;
                from_proc = sc.proc.(d.Dag.src_op);
                to_proc = sc.proc.(d.Dag.dst_op);
                bytes = d.Dag.bytes;
                start = sc.depart.(id);
                finish = sc.hop_finish.(sc.dep_last.(id));
                hops = hops id;
              }
        | _ -> None)
      dag.Dag.deps
    |> List.sort (fun (a : Schedule.comm_slot) (b : Schedule.comm_slot) ->
           match Float.compare a.Schedule.start b.Schedule.start with
           | 0 -> Int.compare a.Schedule.bytes b.Schedule.bytes
           | c -> c)
  in
  {
    Schedule.graph = dag.Dag.graph;
    arch = sc.arch;
    placement = Array.copy placement;
    ops;
    comms;
    makespan = makespan sc;
    pipeline = None;
  }

let of_placement_dag arch dag placement =
  let sc = scratch arch dag in
  run sc placement;
  schedule sc placement

let of_placement cost arch g placement =
  check_placement arch g placement;
  of_placement_dag arch (Dag.of_graph cost g) placement
