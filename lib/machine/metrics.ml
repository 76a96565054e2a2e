type processor_load = {
  proc : int;
  busy : float;
  live : float;
  fraction : float;
  processes : int;
}

type link_load = {
  src : int;
  dst : int;
  link_busy : float;
  transfers : int;
  occupancy : float;
}

type process_breakdown = {
  name : string;
  on : int;
  busy_t : float;
  blocked_t : float;
  idle_t : float;
  sends : int;
}

type latency_stats = {
  n : int;
  mean_latency : float;
  p50 : float;
  p95 : float;
  p99 : float;
  jitter : float;
}

type report = {
  finish_time : float;
  mean_utilisation : float;
  loads : processor_load list;
  hottest_process : (string * float) option;
  messages : int;
  bytes : int;
  links : link_load list;
  port_depths : ((string * string) * int) list;
  breakdown : process_breakdown list;
  dropped_msgs : int;
  deadline_misses : int;
  reissues : int;
  latency : latency_stats option;
}

(* Nearest-rank percentiles over the per-frame latencies: with the samples
   sorted ascending, percentile q is the element at 1-based rank
   round(q*n + 0.5) (half away from zero), clamped into [1, n]. For n = 1
   every percentile is the sample; for n = 2 the 0.5 rank rounds *up*, so
   p50 of a pair is the larger element — pinned in test_conformance so the
   convention cannot silently drift. Jitter is the population standard
   deviation, and explicitly 0.0 when fewer than two samples exist (a
   single frame has no spread to measure). All simulation-deterministic, so
   the stats can sit in byte-compared artifacts. *)
let latency_stats = function
  | [] -> None
  | latencies ->
      let sorted = List.sort compare latencies in
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      let pct q =
        let rank = int_of_float (Float.round (q *. float_of_int n +. 0.5)) in
        arr.(Int.min (n - 1) (Int.max 0 (rank - 1)))
      in
      let mean = List.fold_left ( +. ) 0.0 latencies /. float_of_int n in
      let jitter =
        if n < 2 then 0.0
        else
          let var =
            List.fold_left (fun s l -> s +. ((l -. mean) ** 2.0)) 0.0 latencies
            /. float_of_int n
          in
          Float.sqrt var
      in
      Some
        {
          n;
          mean_latency = mean;
          p50 = pct 0.50;
          p95 = pct 0.95;
          p99 = pct 0.99;
          jitter;
        }

let analyse ?(deadline_misses = 0) ?(reissues = 0) ?(latencies = []) sim =
  let stats = Sim.stats sim in
  let accounts = Sim.accounts sim in
  let finish = stats.Sim.finish_time in
  let live_times = Sim.live_times sim in
  let nprocs = Array.length stats.Sim.busy in
  let hosted = Array.make nprocs 0 in
  List.iter
    (fun (a : Sim.account) -> hosted.(a.on) <- hosted.(a.on) + 1)
    accounts;
  let loads =
    List.init nprocs (fun p ->
        let live = live_times.(p) in
        {
          proc = p;
          busy = stats.Sim.busy.(p);
          live;
          fraction = (if live > 0.0 then stats.Sim.busy.(p) /. live else 0.0);
          processes = hosted.(p);
        })
  in
  let hottest_process =
    List.fold_left
      (fun best (a : Sim.account) ->
        match best with
        | Some (_, b) when b >= a.busy_s -> best
        | _ -> Some (a.aname, a.busy_s))
      None accounts
  in
  let links =
    List.map
      (fun ((src, dst), busy, transfers) ->
        {
          src;
          dst;
          link_busy = busy;
          transfers;
          occupancy = (if finish > 0.0 then busy /. finish else 0.0);
        })
      (Sim.link_occupancy sim)
  in
  let breakdown =
    List.map
      (fun (a : Sim.account) ->
        {
          name = a.Sim.aname;
          on = a.Sim.on;
          busy_t = a.Sim.busy_s;
          blocked_t = a.Sim.blocked_s;
          idle_t = Float.max 0.0 (finish -. a.Sim.busy_s -. a.Sim.blocked_s);
          sends = a.Sim.sends;
        })
      accounts
  in
  {
    finish_time = finish;
    mean_utilisation = Sim.utilisation sim;
    loads;
    hottest_process;
    messages = stats.Sim.messages;
    bytes = stats.Sim.bytes;
    links;
    port_depths = Sim.port_depths sim;
    breakdown;
    dropped_msgs = stats.Sim.dropped_msgs;
    deadline_misses;
    reissues;
    latency = latency_stats latencies;
  }

(* Imbalance over busy *fractions* of the processors that were alive at
   all, so a halted processor does not masquerade as an idle one. On a
   healthy run every [live] equals [finish_time] and this reduces to the
   classic max-busy / mean-busy. *)
let imbalance report =
  match List.filter (fun l -> l.live > 0.0) report.loads with
  | [] -> 0.0
  | loads ->
      let total = List.fold_left (fun acc l -> acc +. l.fraction) 0.0 loads in
      let mean = total /. float_of_int (List.length loads) in
      if mean <= 0.0 then 0.0
      else
        List.fold_left (fun acc l -> Float.max acc l.fraction) 0.0 loads /. mean

(* Strictly-greater busy time wins; equal loads break towards the lower
   (src, dst) pair, so the answer never depends on the order the simulator
   happened to enumerate the links in. *)
let hottest_link report =
  List.fold_left
    (fun best l ->
      match best with
      | Some b
        when b.link_busy > l.link_busy
             || (b.link_busy = l.link_busy && (b.src, b.dst) <= (l.src, l.dst))
        -> best
      | _ -> Some l)
    None report.links

let link_contention report =
  match hottest_link report with Some l -> l.occupancy | None -> 0.0

let max_port_depth report =
  List.fold_left (fun acc (_, d) -> max acc d) 0 report.port_depths

let bar fraction width =
  let filled = int_of_float (fraction *. float_of_int width) in
  String.make (min width filled) '#' ^ String.make (max 0 (width - filled)) '.'

let to_string report =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "run: %.3f ms, mean utilisation %.0f%%, %d messages (%d bytes)\n"
       (report.finish_time *. 1e3)
       (report.mean_utilisation *. 100.0)
       report.messages report.bytes);
  List.iter
    (fun l ->
      Buffer.add_string buf
        (Printf.sprintf "P%-3d |%s| %5.1f%%  (%d processes)\n" l.proc
           (bar l.fraction 40) (l.fraction *. 100.0) l.processes))
    report.loads;
  (match report.hottest_process with
  | Some (name, busy) ->
      Buffer.add_string buf
        (Printf.sprintf "busiest process: %s (%.3f ms busy)\n" name (busy *. 1e3))
  | None -> ());
  (match hottest_link report with
  | Some l ->
      Buffer.add_string buf
        (Printf.sprintf
           "hottest link: P%d->P%d (%.3f ms occupied, %.0f%%, %d transfers)\n"
           l.src l.dst (l.link_busy *. 1e3) (l.occupancy *. 100.0) l.transfers)
  | None -> ());
  (match report.latency with
  | Some l ->
      Buffer.add_string buf
        (Printf.sprintf
           "latency over %d frames: mean %.3f ms, p50 %.3f, p95 %.3f, p99 \
            %.3f, jitter %.3f ms\n"
           l.n (l.mean_latency *. 1e3) (l.p50 *. 1e3) (l.p95 *. 1e3)
           (l.p99 *. 1e3) (l.jitter *. 1e3))
  | None -> ());
  let depth = max_port_depth report in
  if depth > 1 then
    Buffer.add_string buf (Printf.sprintf "deepest mailbox backlog: %d messages\n" depth);
  Buffer.add_string buf (Printf.sprintf "imbalance (max/mean busy): %.2f\n" (imbalance report));
  if report.dropped_msgs > 0 || report.deadline_misses > 0 || report.reissues > 0
  then
    Buffer.add_string buf
      (Printf.sprintf
         "faults: %d dropped messages, %d reissued tasks, %d deadline misses\n"
         report.dropped_msgs report.reissues report.deadline_misses);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Machine-readable summary                                            *)

module Json = Support.Json

let fixed d x = Json.Fixed (d, x)

let to_json report =
  let loads =
    List.map
      (fun l ->
        Json.Obj
          [
            ("proc", Json.int l.proc);
            ("busy_s", fixed 9 l.busy);
            ("live_s", fixed 9 l.live);
            ("fraction", fixed 6 l.fraction);
            ("processes", Json.int l.processes);
          ])
      report.loads
  in
  let links =
    List.map
      (fun l ->
        Json.Obj
          [
            ("src", Json.int l.src);
            ("dst", Json.int l.dst);
            ("busy_s", fixed 9 l.link_busy);
            ("occupancy", fixed 6 l.occupancy);
            ("transfers", Json.int l.transfers);
          ])
      report.links
  in
  let ports =
    List.map
      (fun ((proc, port), depth) ->
        Json.Obj
          [
            ("process", Json.Str proc);
            ("port", Json.Str port);
            ("max_depth", Json.int depth);
          ])
      report.port_depths
  in
  let procs =
    List.map
      (fun p ->
        Json.Obj
          [
            ("process", Json.Str p.name);
            ("proc", Json.int p.on);
            ("busy_s", fixed 9 p.busy_t);
            ("blocked_s", fixed 9 p.blocked_t);
            ("idle_s", fixed 9 p.idle_t);
            ("sends", Json.int p.sends);
          ])
      report.breakdown
  in
  let latency =
    match report.latency with
    | None -> Json.Null
    | Some l ->
        Json.Obj
          [
            ("n", Json.int l.n);
            ("mean_s", fixed 9 l.mean_latency);
            ("p50_s", fixed 9 l.p50);
            ("p95_s", fixed 9 l.p95);
            ("p99_s", fixed 9 l.p99);
            ("jitter_s", fixed 9 l.jitter);
          ]
  in
  Json.to_string
    (Json.Obj
       [
         ("finish_time_s", fixed 9 report.finish_time);
         ("mean_utilisation", fixed 6 report.mean_utilisation);
         ("messages", Json.int report.messages);
         ("bytes", Json.int report.bytes);
         ("imbalance", fixed 6 (imbalance report));
         ("link_contention", fixed 6 (link_contention report));
         ("dropped_msgs", Json.int report.dropped_msgs);
         ("deadline_misses", Json.int report.deadline_misses);
         ("reissues", Json.int report.reissues);
         ("latency", latency);
         ("processors", Json.Arr loads);
         ("links", Json.Arr links);
         ("ports", Json.Arr ports);
         ("processes", Json.Arr procs);
       ])

(* The one-line per-experiment summary the bench harness's [--json] file is
   made of. Every field is simulation-deterministic (finish_time is
   simulated seconds, never wall-clock), which is what lets CI byte-compare
   a --jobs 4 sweep against a --jobs 1 one; wall-clock measurements belong
   in the separate timing artifact, never here. The field set is pinned by
   the golden test in test_determinism. *)
let summary_json ?(extras = []) ~experiment report =
  Json.to_string
    (Json.Obj
       ([
          ("experiment", Json.Str experiment);
          ("finish_time", fixed 6 report.finish_time);
          ("utilisation", fixed 4 report.mean_utilisation);
          ("messages", Json.int report.messages);
          ("bytes", Json.int report.bytes);
          ("imbalance", fixed 4 (imbalance report));
          ("dropped_msgs", Json.int report.dropped_msgs);
          ("deadline_misses", Json.int report.deadline_misses);
          ("reissues", Json.int report.reissues);
        ]
       @ List.map (fun (k, v) -> (k, fixed 6 v)) extras))
