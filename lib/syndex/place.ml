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
   arrays that grow by doubling; one link book per link; room for the
   transfer ids [score] sorts (two arrays, for a merge sort), and for its
   link loads. *)
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
  sorted : int array;
  spare : int array;
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
    sorted = Array.make ndeps 0;
    spare = Array.make ndeps 0;
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
      if arrival > !est then est := arrival
    done;
    let finish = !est +. (ops.(i).Dag.cycles *. cycle_time) in
    sc.start.(i) <- !est;
    sc.finish.(i) <- finish;
    sc.avail.(p) <- finish;
    sc.proc_load.(p) <- sc.proc_load.(p) +. (finish -. !est)
  done

(* [Array.fold_left Float.max init a], in a loop whose float stays unboxed.
   Every time [run] and [score] compare is finite, non-negative and never
   [-0.], so a compare picks the bits [Float.max] would, without its sign
   tests. *)
let max_from init (a : float array) =
  let m = ref init in
  for i = 0 to Array.length a - 1 do
    if a.(i) > !m then m := a.(i)
  done;
  !m

let makespan sc = max_from 0.0 sc.finish

(* Transfer [a] goes after transfer [b] in the comm list's order: by
   departure, then bytes *)
let later sc a b =
  match Float.compare sc.depart.(a) sc.depart.(b) with
  | 0 -> sc.deps.(a).Dag.bytes > sc.deps.(b).Dag.bytes
  | c -> c > 0

(* The transfers [run] made, in the comm list's order: by departure, then
   bytes, then dependency id (the dependency order [List.sort] keeps).
   A bottom-up merge sort of the ids, taken in ascending order, between
   [sc.sorted] and [sc.spare]: a merge takes from the right run only a
   transfer that goes strictly before the left run's next, so it is
   stable and gives the permutation [List.sort] gives, without allocating.
   Leaves the ids in [sc.sorted] and returns how many there are. *)
let sort_transfers sc =
  let n = ref 0 in
  for id = 0 to Array.length sc.dep_first - 1 do
    if sc.dep_first.(id) >= 0 then begin
      sc.sorted.(!n) <- id;
      incr n
    end
  done;
  let n = !n in
  let src = ref sc.sorted and dst = ref sc.spare and width = ref 1 in
  while !width < n do
    let a = !src and b = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + !width) in
      let hi = min n (mid + !width) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !i < mid && (!j >= hi || not (later sc a.(!i) a.(!j))) then begin
          b.(k) <- a.(!i);
          incr i
        end
        else begin
          b.(k) <- a.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := b;
    dst := a;
    width := 2 * !width
  done;
  if !src != sc.sorted then Array.blit !src 0 sc.sorted 0 n;
  n

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
  for k = 0 to sort_transfers sc - 1 do
    let id = sc.sorted.(k) in
    for h = sc.dep_first.(id) to sc.dep_last.(id) do
      let l = sc.hop_link.(h) in
      load.(l) <- load.(l) +. (sc.hop_finish.(h) -. sc.hop_start.(h))
    done
  done;
  (makespan sc, max_from (max_from 0.0 sc.proc_load) load)

(* Bounds without scheduling: one pass over the placed DAG per call, with
   no link book and no hop store. Route times come from [rest], filled on
   first use. Per op: processor, duration, contention-free finish
   ([head]) and the contention-free time from its finish to the end
   ([tail]). Per dependency, what separates its source's finish from its
   destination's start when nothing is contended: [lead] up to the first
   hop, the first hop's duration [hop] on link [first] (-1 without one),
   and [trail] from its end to the arrival. Per processor and per link:
   the load, the earliest release and the shortest tail of what it
   serves. *)
type bounds_scratch = {
  b_arch : Archi.t;
  b_dag : Dag.t;
  b_order : int array;
  b_preds : Dag.dep array array;
  b_succs : Dag.dep array array;
  b_deps : Dag.dep array;
  b_proc : int array;
  dur : float array;
  head : float array;
  tail : float array;
  first : int array;
  lead : float array;
  hop : float array;
  trail : float array;
  p_load : float array;
  p_release : float array;
  p_tail : float array;
  l_load : float array;
  l_release : float array;
  l_tail : float array;
  l_count : int array;
  rest : float array array;
}

let bounds_scratch arch dag =
  let nops = Array.length dag.Dag.ops
  and ndeps = List.length dag.Dag.deps
  and nprocs = Archi.nprocs arch
  and nlinks = Archi.nlinks arch in
  {
    b_arch = arch;
    b_dag = dag;
    b_order = Array.of_list (Dag.topological_order dag);
    b_preds = Array.map Array.of_list dag.Dag.preds;
    b_succs = Array.map Array.of_list dag.Dag.succs;
    b_deps = Array.of_list dag.Dag.deps;
    b_proc = Array.make nops 0;
    dur = Array.make nops 0.0;
    head = Array.make nops 0.0;
    tail = Array.make nops 0.0;
    first = Array.make ndeps (-1);
    lead = Array.make ndeps 0.0;
    hop = Array.make ndeps 0.0;
    trail = Array.make ndeps 0.0;
    p_load = Array.make nprocs 0.0;
    p_release = Array.make nprocs 0.0;
    p_tail = Array.make nprocs 0.0;
    l_load = Array.make nlinks 0.0;
    l_release = Array.make nlinks 0.0;
    l_tail = Array.make nlinks 0.0;
    l_count = Array.make nlinks 0;
    rest = Array.make nprocs [||];
  }

(* The route from [src] to [dst] past its first link [l]: its startups
   and its seconds per byte, summed, at [2 * dst] and [2 * dst + 1] of the
   row [bs.rest.(src)] this returns. The row is made on the first route
   from [src], the entry on the first route to [dst]. *)
let fill_rest bs src dst l =
  let arch = bs.b_arch in
  if Array.length bs.rest.(src) = 0 then
    bs.rest.(src) <- Array.make (2 * Archi.nprocs arch) nan;
  let row = bs.rest.(src) in
  let startup = ref 0.0 and per_byte = ref 0.0 in
  let u = ref (Archi.link_at arch l).Archi.dst in
  while !u <> dst do
    let link = Archi.link_at arch (Archi.first_link arch !u dst) in
    startup := !startup +. link.Archi.startup;
    per_byte := !per_byte +. (1.0 /. link.Archi.bandwidth);
    u := link.Archi.dst
  done;
  row.(2 * dst) <- !startup;
  row.((2 * dst) + 1) <- !per_byte;
  row

(* The bounds are exact-arithmetic bounds on sums that [run] and [score]
   round in other orders; both are scaled down by this margin, far wider
   than the rounding. *)
let margin = 1.0 -. 1e-9

let bounds bs placement =
  let arch = bs.b_arch and dag = bs.b_dag in
  check_placement arch dag.Dag.graph placement;
  let ops = dag.Dag.ops and procs = Archi.processors arch in
  let proc = bs.b_proc and head = bs.head and tail = bs.tail and dur = bs.dur in
  let first = bs.first and lead = bs.lead and hop = bs.hop and trail = bs.trail in
  Array.iteri (fun i (op : Dag.op) -> proc.(i) <- placement.(op.Dag.node)) ops;
  (* forward: contention-free finishes, as [run] would compute them with
     every link free and every processor idle *)
  let path = ref 0.0 in
  for k = 0 to Array.length bs.b_order - 1 do
    let i = bs.b_order.(k) in
    let p = proc.(i) in
    let cycle_time = procs.(p).Archi.cycle_time in
    let preds = bs.b_preds.(i) in
    let est = ref 0.0 in
    for m = 0 to Array.length preds - 1 do
      let d = preds.(m) in
      let id = d.Dag.dep_id and src = d.Dag.src_op in
      (match d.Dag.edge with
      | None ->
          first.(id) <- -1;
          lead.(id) <- 0.0;
          hop.(id) <- 0.0;
          trail.(id) <- 0.0
      | Some _ ->
          let sp = proc.(src) in
          let send_oh = Archi.send_overhead_cycles *. procs.(sp).Archi.cycle_time in
          let recv_oh = Archi.recv_overhead_cycles *. cycle_time in
          if sp = p then begin
            first.(id) <- -1;
            lead.(id) <-
              send_oh
              +. (float_of_int d.Dag.bytes /. Archi.local_copy_bandwidth)
              +. recv_oh;
            hop.(id) <- 0.0;
            trail.(id) <- 0.0
          end
          else begin
            let l = Archi.first_link arch sp p in
            if l < 0 then
              failwith (Printf.sprintf "Archi.route: no path %d -> %d" sp p);
            let row = bs.rest.(sp) in
            let row =
              if Array.length row = 0 || Float.is_nan row.(2 * p) then
                fill_rest bs sp p l
              else row
            in
            first.(id) <- l;
            lead.(id) <- send_oh;
            hop.(id) <- Archi.hop_time (Archi.link_at arch l) d.Dag.bytes;
            trail.(id) <-
              row.(2 * p)
              +. (float_of_int d.Dag.bytes *. row.((2 * p) + 1))
              +. recv_oh
          end);
      let arrival = head.(src) +. lead.(id) +. hop.(id) +. trail.(id) in
      if arrival > !est then est := arrival
    done;
    let d = ops.(i).Dag.cycles *. cycle_time in
    dur.(i) <- d;
    head.(i) <- !est +. d;
    if head.(i) > !path then path := head.(i)
  done;
  (* backward: tails *)
  for k = Array.length bs.b_order - 1 downto 0 do
    let i = bs.b_order.(k) in
    let t = ref 0.0 in
    let succs = bs.b_succs.(i) in
    for m = 0 to Array.length succs - 1 do
      let d = succs.(m) in
      let id = d.Dag.dep_id and dst = d.Dag.dst_op in
      let after = lead.(id) +. hop.(id) +. trail.(id) +. dur.(dst) +. tail.(dst) in
      if after > !t then t := after
    done;
    tail.(i) <- !t
  done;
  (* what each processor and each link serves: its load, its earliest
     release, its shortest tail *)
  Array.fill bs.p_load 0 (Array.length bs.p_load) 0.0;
  Array.fill bs.p_release 0 (Array.length bs.p_release) infinity;
  Array.fill bs.p_tail 0 (Array.length bs.p_tail) infinity;
  for i = 0 to Array.length proc - 1 do
    let p = proc.(i) in
    bs.p_load.(p) <- bs.p_load.(p) +. dur.(i);
    let release = head.(i) -. dur.(i) in
    if release < bs.p_release.(p) then bs.p_release.(p) <- release;
    if tail.(i) < bs.p_tail.(p) then bs.p_tail.(p) <- tail.(i)
  done;
  Array.fill bs.l_load 0 (Array.length bs.l_load) 0.0;
  Array.fill bs.l_release 0 (Array.length bs.l_release) infinity;
  Array.fill bs.l_tail 0 (Array.length bs.l_tail) infinity;
  Array.fill bs.l_count 0 (Array.length bs.l_count) 0;
  for id = 0 to Array.length first - 1 do
    let l = first.(id) in
    if l >= 0 then begin
      let d = bs.b_deps.(id) in
      let dst = d.Dag.dst_op in
      bs.l_load.(l) <- bs.l_load.(l) +. hop.(id);
      let release = head.(d.Dag.src_op) +. lead.(id)
      and after = trail.(id) +. dur.(dst) +. tail.(dst) in
      if release < bs.l_release.(l) then bs.l_release.(l) <- release;
      if after < bs.l_tail.(l) then bs.l_tail.(l) <- after;
      bs.l_count.(l) <- bs.l_count.(l) + 1
    end
  done;
  (* one-machine relaxations: everything a processor (a link) serves runs
     one at a time, after the earliest release, and whatever runs last
     still has the shortest tail to go. First fit lets each reservation
     overlap the next by the book's tolerance, so a link's busy span may
     fall short of its load by that much per hop. *)
  let latency = ref !path and period = ref 0.0 in
  for p = 0 to Array.length bs.p_load - 1 do
    if bs.p_release.(p) < infinity then begin
      let span = bs.p_release.(p) +. bs.p_load.(p) +. bs.p_tail.(p) in
      if span > !latency then latency := span;
      if bs.p_load.(p) > !period then period := bs.p_load.(p)
    end
  done;
  for l = 0 to Array.length bs.l_load - 1 do
    let n = bs.l_count.(l) in
    if n > 0 then begin
      let span =
        bs.l_release.(l) +. bs.l_load.(l) +. bs.l_tail.(l)
        -. (float_of_int n *. Support.Intervals.tolerance)
      in
      if span > !latency then latency := span;
      if bs.l_load.(l) > !period then period := bs.l_load.(l)
    end
  done;
  (!latency *. margin, !period *. margin)

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
