type processor = { id : int; pname : string; cycle_time : float }
type link = { src : int; dst : int; bandwidth : float; startup : float }

type t = {
  arch_name : string;
  procs : processor array;
  link_arr : link array;  (* in the order given; the index is the link id *)
  link_index : (int * int, int) Hashtbl.t;  (* (src, dst) -> link_arr index *)
  adj : int list array;
  (* first_link.(a).(b) indexes link_arr: the first link on the route from a
     towards b, or -1 when unreachable or a = b. Precomputed by BFS from
     every source and never mutated, so one [t] is safe to share across
     domains. *)
  first_link : int array array;
}

let name t = t.arch_name
let processors t = t.procs
let nprocs t = Array.length t.procs
let links t = Array.to_list t.link_arr
let nlinks t = Array.length t.link_arr
let link_at t i = t.link_arr.(i)
let first_link t a b = t.first_link.(a).(b)
let link_between t a b =
  Option.map (link_at t) (Hashtbl.find_opt t.link_index (a, b))
let neighbours t p = t.adj.(p)

(* T9000-era defaults (see DESIGN.md calibration table). *)
let default_cycle_time = 5e-8
let default_bandwidth = 1e7
let default_startup = 1e-6

let send_overhead_cycles = 200.0
let recv_overhead_cycles = 150.0
let local_copy_bandwidth = 4e8

let[@inline] hop_time link bytes = link.startup +. (float_of_int bytes /. link.bandwidth)

let compute_first_links n adj link_index =
  let table = Array.make_matrix n n (-1) in
  for src = 0 to n - 1 do
    (* BFS from src; because neighbour lists are sorted, parent choices are
       deterministic and favour low processor ids. *)
    let parent = Array.make n (-1) in
    let visited = Array.make n false in
    visited.(src) <- true;
    let q = Queue.create () in
    Queue.add src q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if not visited.(v) then begin
            visited.(v) <- true;
            parent.(v) <- u;
            Queue.add v q
          end)
        adj.(u)
    done;
    for dst = 0 to n - 1 do
      if dst <> src && visited.(dst) then begin
        (* Walk back from dst to find src's first step. *)
        let rec first_step v = if parent.(v) = src then v else first_step parent.(v) in
        table.(src).(dst) <- Hashtbl.find link_index (src, first_step dst)
      end
    done
  done;
  table

let build ~name:arch_name procs edges =
  let n = Array.length procs in
  if n = 0 then invalid_arg "Archi: empty processor set";
  Array.iteri
    (fun i p -> if p.id <> i then invalid_arg "Archi: processor ids must be 0..n-1")
    procs;
  let link_arr = Array.of_list edges in
  let link_index = Hashtbl.create 16 in
  let adj = Array.make n [] in
  Array.iteri
    (fun i l ->
      if l.src < 0 || l.src >= n || l.dst < 0 || l.dst >= n then
        invalid_arg "Archi: link endpoint out of range";
      if l.src = l.dst then invalid_arg "Archi: self-link";
      if Hashtbl.mem link_index (l.src, l.dst) then
        invalid_arg "Archi: duplicate link";
      Hashtbl.replace link_index (l.src, l.dst) i;
      adj.(l.src) <- l.dst :: adj.(l.src))
    link_arr;
  Array.iteri (fun i ns -> adj.(i) <- List.sort compare ns) adj;
  {
    arch_name;
    procs;
    link_arr;
    link_index;
    adj;
    first_link = compute_first_links n adj link_index;
  }

let mk_procs ?(cycle_time = default_cycle_time) n =
  Array.init n (fun i -> { id = i; pname = Printf.sprintf "P%d" i; cycle_time })

let bidir ?(bandwidth = default_bandwidth) ?(startup = default_startup) pairs =
  List.concat_map
    (fun (a, b) ->
      [ { src = a; dst = b; bandwidth; startup }; { src = b; dst = a; bandwidth; startup } ])
    pairs

let ring ?cycle_time ?bandwidth ?startup n =
  if n <= 0 then invalid_arg "Archi.ring: n <= 0";
  let pairs =
    if n = 1 then []
    else if n = 2 then [ (0, 1) ]
    else List.init n (fun i -> (i, (i + 1) mod n))
  in
  build
    ~name:(Printf.sprintf "ring-%d" n)
    (mk_procs ?cycle_time n)
    (bidir ?bandwidth ?startup pairs)

let chain ?cycle_time ?bandwidth ?startup n =
  if n <= 0 then invalid_arg "Archi.chain: n <= 0";
  build
    ~name:(Printf.sprintf "chain-%d" n)
    (mk_procs ?cycle_time n)
    (bidir ?bandwidth ?startup (List.init (n - 1) (fun i -> (i, i + 1))))

let star ?cycle_time ?bandwidth ?startup n =
  if n <= 0 then invalid_arg "Archi.star: n <= 0";
  build
    ~name:(Printf.sprintf "star-%d" n)
    (mk_procs ?cycle_time n)
    (bidir ?bandwidth ?startup (List.init (n - 1) (fun i -> (0, i + 1))))

let grid ?cycle_time ?bandwidth ?startup rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Archi.grid: non-positive dimensions";
  let idx r c = (r * cols) + c in
  let pairs = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then pairs := (idx r c, idx r (c + 1)) :: !pairs;
      if r + 1 < rows then pairs := (idx r c, idx (r + 1) c) :: !pairs
    done
  done;
  build
    ~name:(Printf.sprintf "grid-%dx%d" rows cols)
    (mk_procs ?cycle_time (rows * cols))
    (bidir ?bandwidth ?startup !pairs)

let fully_connected ?cycle_time ?bandwidth ?startup n =
  if n <= 0 then invalid_arg "Archi.fully_connected: n <= 0";
  let pairs = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      pairs := (a, b) :: !pairs
    done
  done;
  build
    ~name:(Printf.sprintf "full-%d" n)
    (mk_procs ?cycle_time n)
    (bidir ?bandwidth ?startup !pairs)

let custom ~name:arch_name procs edges =
  build ~name:arch_name procs
    (List.map (fun (src, dst, bandwidth, startup) -> { src; dst; bandwidth; startup }) edges)

let check_ends t a b =
  let n = nprocs t in
  if a < 0 || a >= n || b < 0 || b >= n then invalid_arg "Archi.route: bad processor id"

(* the index of the link out of [u] on the route from [a] to [b] *)
let next_link t a u b =
  let l = t.first_link.(u).(b) in
  if l < 0 then failwith (Printf.sprintf "Archi.route: no path %d -> %d" a b);
  l

let fold_route t a b f init =
  check_ends t a b;
  let rec walk u acc =
    if u = b then acc
    else
      let l = next_link t a u b in
      let link = t.link_arr.(l) in
      walk link.dst (f acc l link)
  in
  walk a init

let route t a b = List.rev (fold_route t a b (fun acc _ l -> l.dst :: acc) [ a ])

let hops t a b = List.length (route t a b) - 1

(* [fold_route]'s walk as a loop, so that the sum stays an unboxed float:
   the mappers call this for every candidate processor of every op. Each
   hop adds its startup, then its byte time, to the sum: not [hop_time],
   whose rounding differs on routes of two hops or more, and would move
   the mappers' decisions. *)
let transfer_time t a b bytes =
  if a = b then 0.0
  else begin
    check_ends t a b;
    let acc = ref 0.0 and u = ref a in
    while !u <> b do
      let link = t.link_arr.(next_link t a !u b) in
      acc := !acc +. link.startup +. (float_of_int bytes /. link.bandwidth);
      u := link.dst
    done;
    !acc
  end

let to_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n" t.arch_name);
  Array.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "  p%d [label=%S shape=box];\n" p.id p.pname))
    t.procs;
  Array.iter
    (fun l -> Buffer.add_string buf (Printf.sprintf "  p%d -> p%d;\n" l.src l.dst))
    t.link_arr;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
