(* The mapping engine: every adequation strategy is a named [t] in
   [strategies]; Pipeline/skipperc look strategies up by name.

   Besides wrapping the existing HEFT heuristic and the fixed placements,
   this module implements the frame-pipelined mappers of Benoit, Kosch,
   Rehn-Sonigo & Robert ("Bi-criteria Pipeline Mappings"): the process
   network is linearised into a stage chain and partitioned into contiguous
   intervals, one interval per processor, so successive frames overlap
   across the stages and the steady-state period drops to the bottleneck
   interval instead of the end-to-end latency. *)

type point = {
  point_label : string;
  point_schedule : Schedule.t;
  point_latency : float;
  point_period : float;
}

type t = {
  name : string;
  describe : string;
  map : Cost.t -> Archi.t -> Procnet.Graph.t -> Schedule.t;
  frontier : (Cost.t -> Archi.t -> Procnet.Graph.t -> point list) option;
}

let point schedule label =
  {
    point_label = label;
    point_schedule = schedule;
    point_latency = schedule.Schedule.makespan;
    point_period = Schedule.period schedule;
  }

let frontier m cost arch g =
  match m.frontier with
  | Some f -> f cost arch g
  | None -> [ point (m.map cost arch g) m.name ]

(* ------------------------------------------------------------------ *)
(* Interval mapping (the pipelined strategies)                         *)

(* Stage chain: process-network nodes by first appearance of one of their
   ops in the (deterministic) topological order of the scheduling DAG. *)
let linearize (dag : Dag.t) =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun i ->
      let node = dag.Dag.ops.(i).Dag.node in
      if Hashtbl.mem seen node then None
      else begin
        Hashtbl.add seen node ();
        Some node
      end)
    (Dag.topological_order dag)
  |> Array.of_list

(* Best contiguous partitions of the stage chain into k = 1..k_max
   intervals, minimising the bottleneck interval time (compute load of the
   interval plus the communication entering it from earlier intervals, over
   mean link characteristics). The [k]th element is (bottleneck, cut
   points) for k intervals. One table answers every k: the best partition
   of a prefix into j intervals does not depend on how many intervals
   follow. Deterministic: ties keep the earliest cut. *)
let interval_partitions arch (dag : Dag.t) seq k_max =
  let n = Array.length seq in
  let ct = Heft.mean_cycle_time arch in
  let startup, bw = Heft.mean_link_costs arch in
  let pos = Array.make (Procnet.Graph.nnodes dag.Dag.graph) (-1) in
  Array.iteri (fun i node -> pos.(node) <- i) seq;
  let node_work = Array.make n 0.0 in
  Array.iter
    (fun (op : Dag.op) ->
      let i = pos.(op.Dag.node) in
      node_work.(i) <- node_work.(i) +. (op.Dag.cycles *. ct))
    dag.Dag.ops;
  let prefix = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- prefix.(i) +. node_work.(i)
  done;
  let comm bytes =
    if bw = infinity then 0.0 else startup +. (float_of_int bytes /. bw)
  in
  (* every channel between distinct positions, in dependency-list order:
     its earlier position, its later one and its transfer time *)
  let chans =
    List.filter_map
      (fun (d : Dag.dep) ->
        match d.Dag.edge with
        | None -> None
        | Some _ ->
            let sp = pos.(dag.Dag.ops.(d.Dag.src_op).Dag.node) in
            let dp = pos.(dag.Dag.ops.(d.Dag.dst_op).Dag.node) in
            if sp = dp then None
            else Some (min sp dp, max sp dp, comm d.Dag.bytes))
      dag.Dag.deps
    |> Array.of_list
  in
  let lo = Array.map (fun (sp, _, _) -> sp) chans
  and hi = Array.map (fun (_, dp, _) -> dp) chans
  and time = Array.map (fun (_, _, c) -> c) chans in
  (* costt.(b).(a), a < b: time of interval [a, b), its compute load plus
     the communication entering it from nodes before position a: the
     channels crossing position a that end before b, summed in
     dependency-list order. Each crossing channel is added, in that
     order, to the sum of every b past its end. *)
  let costt = Array.make_matrix (n + 1) (n + 1) 0.0 in
  let acc = Array.make (n + 1) 0.0 in
  for a = 0 to n - 1 do
    Array.fill acc 0 (n + 1) 0.0;
    for c = 0 to Array.length lo - 1 do
      if lo.(c) < a && hi.(c) >= a then begin
        let t = time.(c) in
        for b = hi.(c) + 1 to n do
          acc.(b) <- acc.(b) +. t
        done
      end
    done;
    for b = a + 1 to n do
      costt.(b).(a) <- prefix.(b) -. prefix.(a) +. acc.(b)
    done
  done;
  (* best.(j).(b): minimal bottleneck partitioning seq[0..b) into j
     intervals; cut.(j).(b) the position of the last cut. The minimum over
     a is taken in a local, in ascending a, with a strict compare: the
     earliest cut wins a tie. *)
  let best = Array.make_matrix (k_max + 1) (n + 1) infinity in
  let cut = Array.make_matrix (k_max + 1) (n + 1) 0 in
  best.(0).(0) <- 0.0;
  for j = 1 to k_max do
    let prev = best.(j - 1) and cur = best.(j) and cut_j = cut.(j) in
    for b = j to n do
      let row = costt.(b) in
      let m = ref cur.(b) and at = ref cut_j.(b) in
      for a = j - 1 to b - 1 do
        let c = Float.max prev.(a) row.(a) in
        if c < !m then begin
          m := c;
          at := a
        end
      done;
      cur.(b) <- !m;
      cut_j.(b) <- !at
    done
  done;
  let rec cuts j b acc =
    if j = 0 then acc else cuts (j - 1) cut.(j).(b) (cut.(j).(b) :: acc)
  in
  List.init k_max (fun i -> (best.(i + 1).(n), cuts (i + 1) n [ n ]))

(* The intervals' [a, b) bounds: consecutive pairs of a cut list (the
   positions of the interval starts followed by n). *)
let rec interval_bounds = function
  | a :: (b :: _ as rest) -> (a, b) :: interval_bounds rest
  | _ -> []

(* The chain partition's placement: interval [i] on processor [i]. *)
let interval_placement (dag : Dag.t) seq cuts =
  let placement = Array.make (Procnet.Graph.nnodes dag.Dag.graph) 0 in
  List.iteri
    (fun stage (a, b) ->
      for i = a to b - 1 do
        placement.(seq.(i)) <- stage
      done)
    (interval_bounds cuts);
  placement

(* Schedule the chain partition, with pipelining metadata from the
   resulting schedule's actual per-processor loads. *)
let interval_schedule arch dag seq cuts =
  let bounds = interval_bounds cuts in
  let placement = interval_placement dag seq cuts in
  let sched = Place.of_placement_dag arch dag placement in
  let proc_load = Array.make (Archi.nprocs arch) 0.0 in
  List.iter
    (fun (op : Schedule.op_slot) ->
      proc_load.(op.Schedule.proc) <-
        proc_load.(op.Schedule.proc)
        +. (op.Schedule.finish -. op.Schedule.start))
    sched.Schedule.ops;
  let stages =
    List.mapi
      (fun stage (a, b) ->
        {
          Schedule.stage_proc = stage;
          stage_nodes = Array.to_list (Array.sub seq a (b - a));
          stage_load = proc_load.(stage);
        })
      bounds
  in
  {
    sched with
    Schedule.pipeline =
      Some
        {
          Schedule.frames_in_flight = List.length bounds;
          predicted_period = Schedule.resource_period sched;
          stages;
        };
  }

(* The scheduling DAG, its stage chain and the chain's best partition into
   k = 1..k_max intervals: (bottleneck, cuts) per k, unscheduled. *)
let interval_candidates cost arch g =
  let dag = Dag.of_graph cost g in
  let seq = linearize dag in
  let k_max = min (Archi.nprocs arch) (Array.length seq) in
  (dag, seq, interval_partitions arch dag seq k_max)

(* ------------------------------------------------------------------ *)
(* Built-in strategies                                                 *)

let heft =
  {
    name = "heft";
    describe = "HEFT list scheduling: minimise one-iteration latency";
    map = Heft.map;
    frontier = None;
  }

let canonical =
  {
    name = "canonical";
    describe = "paper Fig. 1 layout: control on P0, workers spread";
    map =
      (fun cost arch g -> Place.of_placement cost arch g (Place.canonical g arch));
    frontier = None;
  }

let roundrobin =
  {
    name = "roundrobin";
    describe = "node i on processor i mod P";
    map =
      (fun cost arch g ->
        Place.of_placement cost arch g (Place.round_robin g arch));
    frontier = None;
  }

let throughput_map cost arch g =
  let dag, seq, candidates = interval_candidates cost arch g in
  (* smallest predicted bottleneck; ties towards fewer stages (equal
     throughput at lower latency and fewer processors) *)
  let _, cuts =
    List.fold_left
      (fun (bb, bc) (b, c) -> if b < bb then (b, c) else (bb, bc))
      (List.hd candidates) (List.tl candidates)
  in
  interval_schedule arch dag seq cuts

let throughput =
  {
    name = "throughput";
    describe =
      "frame-pipelined interval mapping: minimise the steady-state period";
    map = throughput_map;
    frontier = None;
  }

(* A point of latency [pl] and period [pp] dominates one of [ql] and [qp]:
   no worse in either, strictly better in one *)
let dominates (pl : float) (pp : float) ql qp =
  pl <= ql && pp <= qp && (pl < ql || pp < qp)

(* No emitted point dominated by another (minimising both latency and
   period); deterministic order by (latency, period, label). [score p] is
   (latency, period, label). *)
let pareto_by score points =
  let dominates p q =
    let pl, pp, _ = score p and ql, qp, _ = score q in
    dominates pl pp ql qp
  in
  let sorted = List.sort (fun a b -> compare (score a) (score b)) points in
  List.filter
    (fun p -> not (List.exists (fun q -> q != p && dominates q p) sorted))
    sorted
  |> List.fold_left
       (fun acc p ->
         match acc with
         | q :: _ ->
             let ql, qp, _ = score q and pl, pp, _ = score p in
             if ql = pl && qp = pp then acc (* coincident point: keep the first label *)
             else p :: acc
         | [] -> [ p ])
       []
  |> List.rev

let pareto =
  pareto_by (fun p -> (p.point_latency, p.point_period, p.point_label))

(* A bicriteria candidate kept as its score; [schedule] builds it ([Place]
   builds exactly the schedule it scores). *)
type candidate = {
  label : string;
  latency : float;
  period : float;
  schedule : unit -> Schedule.t;
}

(* The HEFT point and every interval mapping that can reach the frontier;
   the Pareto frontier of their scores, in [pareto]'s order. Interval
   candidates go in ascending order of their bottleneck estimate, so the
   ones likeliest to reach the frontier are scored first. A candidate is
   first bounded ([Place.bounds]): when a point already scored is strictly
   better than both bounds, it is strictly better than the candidate's
   score too, so the candidate is not on the frontier and is skipped.
   Otherwise it is list-scheduled into one scratch and scored there; no
   candidate schedule is built. *)
let bicriteria_candidates cost arch g =
  let dag, seq, partitions = interval_candidates cost arch g in
  let heft = Heft.map_dag arch dag in
  let sc = Place.scratch arch dag and bs = Place.bounds_scratch arch dag in
  let ranked =
    List.mapi (fun i (bottleneck, cuts) -> (bottleneck, i + 1, cuts)) partitions
    |> List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b)
  in
  let scored =
    List.fold_left
      (fun scored (_, k, cuts) ->
        let placement = interval_placement dag seq cuts in
        let l, q = Place.bounds bs placement in
        if List.exists (fun c -> dominates c.latency c.period l q) scored then
          scored
        else begin
          Place.run sc placement;
          let latency, period = Place.score sc in
          { label = Printf.sprintf "interval-k%d" k;
            latency;
            period;
            schedule = (fun () -> interval_schedule arch dag seq cuts) }
          :: scored
        end)
      [ { label = "heft"; latency = heft.Schedule.makespan;
          period = Schedule.period heft; schedule = (fun () -> heft) } ]
      ranked
  in
  pareto_by (fun c -> (c.latency, c.period, c.label)) scored

let bicriteria_frontier cost arch g =
  List.map
    (fun c -> point (c.schedule ()) c.label)
    (bicriteria_candidates cost arch g)

let bicriteria_map cost arch g =
  (* knee of the frontier: minimal latency x period product, ties towards
     lower latency then label order; only the knee is built *)
  match bicriteria_candidates cost arch g with
  | [] -> assert false
  | c :: cs ->
      let key c = (c.latency *. c.period, c.latency, c.label) in
      let best =
        List.fold_left (fun b q -> if key q < key b then q else b) c cs
      in
      best.schedule ()

let bicriteria =
  {
    name = "bicriteria";
    describe =
      "bounded latency/throughput search: schedule the Pareto knee, expose \
       the frontier";
    map = bicriteria_map;
    frontier = Some bicriteria_frontier;
  }

let strategies = [ heft; canonical; roundrobin; throughput; bicriteria ]
let find name = List.find_opt (fun m -> m.name = name) strategies
let names () = List.map (fun m -> m.name) strategies
let registered () = strategies

(* ------------------------------------------------------------------ *)
(* Frontier serialisation                                              *)

let frontier_json ~strategy ~arch points =
  let module J = Support.Json in
  let point_json p =
    let fif =
      match p.point_schedule.Schedule.pipeline with
      | Some pl -> pl.Schedule.frames_in_flight
      | None -> 1
    in
    J.Obj
      [
        ("label", J.Str p.point_label);
        ("latency", J.Num p.point_latency);
        ("period", J.Num p.point_period);
        ("frames_in_flight", J.int fif);
        ("placement",
         J.Arr
           (Array.to_list p.point_schedule.Schedule.placement
           |> List.map J.int));
      ]
  in
  J.to_string
    (J.Obj
       [
         ("strategy", J.Str strategy);
         ("arch", J.Str (Archi.name arch));
         ("nprocs", J.int (Archi.nprocs arch));
         ("points", J.Arr (List.map point_json points));
       ])
