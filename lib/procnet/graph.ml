type kind =
  | Input of string
  | Output of string
  | Compute of string
  | ScmCompute of { fn : string; part : int }
  | ScmSplit of { fn : string; nparts : int }
  | ScmMerge of { fn : string; nparts : int }
  | DfMaster of {
      acc : string;
      init : Skel.Value.t;
      nworkers : int;
      state : Skel.Ir.state_mode;
    }
  | DfWorker of { comp : string }
  | TfMaster of { acc : string; init : Skel.Value.t; nworkers : int }
  | TfWorker of { work : string }
  | Mem of { init : Skel.Value.t }
  | Join
  | Fork
  | Router of { dir : [ `Mw | `Wm ] }

type node = { id : int; kind : kind; label : string }
type edge = { src : int; src_port : string; dst : int; dst_port : string }

type t = {
  gname : string;
  gnodes : node array;
  gedges : edge list;
  gentry : int;
  gexit : int;
  incoming : edge list array;
  outgoing : edge list array;
}

let name t = t.gname
let nodes t = t.gnodes
let nnodes t = Array.length t.gnodes
let edges t = t.gedges
let nedges t = List.length t.gedges
let node t i = t.gnodes.(i)
let entry t = t.gentry
let exit_node t = t.gexit
let in_edges t i = t.incoming.(i)
let out_edges t i = t.outgoing.(i)
let out_edges_from_port t i port = List.filter (fun e -> e.src_port = port) t.outgoing.(i)

let kind_name = function
  | Input _ -> "input"
  | Output _ -> "output"
  | Compute _ -> "compute"
  | ScmCompute _ -> "scm-compute"
  | ScmSplit _ -> "scm-split"
  | ScmMerge _ -> "scm-merge"
  | DfMaster _ -> "df-master"
  | DfWorker _ -> "df-worker"
  | TfMaster _ -> "tf-master"
  | TfWorker _ -> "tf-worker"
  | Mem _ -> "mem"
  | Join -> "join"
  | Fork -> "fork"
  | Router { dir = `Mw } -> "router-mw"
  | Router { dir = `Wm } -> "router-wm"

(* Skeleton control processes (masters, split/merge, mem, join, fork,
   routers), as opposed to user computations. *)
let is_control = function
  | Input _ | Output _ | Compute _ | ScmCompute _ | DfWorker _ | TfWorker _ -> false
  | ScmSplit _ | ScmMerge _ | DfMaster _ | TfMaster _ | Mem _ | Join | Fork | Router _
    ->
      true

module Builder = struct
  type t = {
    bname : string;
    mutable bnodes : node list;  (* reversed *)
    mutable bedges : edge list;  (* reversed *)
    mutable count : int;
  }

  let create bname = { bname; bnodes = []; bedges = []; count = 0 }

  let add_node b ?label kind =
    let id = b.count in
    let label =
      match label with Some l -> l | None -> Printf.sprintf "%s%d" (kind_name kind) id
    in
    b.count <- b.count + 1;
    b.bnodes <- { id; kind; label } :: b.bnodes;
    id

  let add_edge b ?(src_port = "out") ?(dst_port = "in") src dst =
    if src < 0 || src >= b.count || dst < 0 || dst >= b.count then
      invalid_arg "Graph.Builder.add_edge: unknown node";
    b.bedges <- { src; src_port; dst; dst_port } :: b.bedges

  (* Ports that legitimately receive messages from many sources. *)
  let multi_in_port nodes e =
    match nodes.(e.dst).kind with
    | DfMaster _ | TfMaster _ -> e.dst_port = "result" || e.dst_port = "packet"
    | _ -> false

  let freeze b ~entry ~exit_node =
    let gnodes = Array.of_list (List.rev b.bnodes) in
    let gedges = List.rev b.bedges in
    let n = Array.length gnodes in
    if entry < 0 || entry >= n then invalid_arg "Graph.Builder.freeze: bad entry";
    if exit_node < 0 || exit_node >= n then invalid_arg "Graph.Builder.freeze: bad exit";
    let seen = Hashtbl.create 16 in
    List.iter
      (fun e ->
        if not (multi_in_port gnodes e) then begin
          let key = (e.dst, e.dst_port) in
          if Hashtbl.mem seen key then
            invalid_arg
              (Printf.sprintf "Graph.Builder.freeze: port %d.%s fed twice" e.dst
                 e.dst_port);
          Hashtbl.add seen key ()
        end)
      gedges;
    let incoming = Array.make n [] and outgoing = Array.make n [] in
    List.iter
      (fun e ->
        incoming.(e.dst) <- e :: incoming.(e.dst);
        outgoing.(e.src) <- e :: outgoing.(e.src))
      gedges;
    Array.iteri (fun i l -> incoming.(i) <- List.rev l) incoming;
    Array.iteri (fun i l -> outgoing.(i) <- List.rev l) outgoing;
    {
      gname = b.bname;
      gnodes;
      gedges;
      gentry = entry;
      gexit = exit_node;
      incoming;
      outgoing;
    }
end

let validate t =
  let n = nnodes t in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  (* Reachability from the entry over undirected edges: feedback edges (mem)
     make directed reachability too strict. *)
  let adj = Array.make n [] in
  List.iter
    (fun e ->
      adj.(e.src) <- e.dst :: adj.(e.src);
      adj.(e.dst) <- e.src :: adj.(e.dst))
    t.gedges;
  let visited = Array.make n false in
  let rec dfs u =
    if not visited.(u) then begin
      visited.(u) <- true;
      List.iter dfs adj.(u)
    end
  in
  dfs t.gentry;
  let unreachable =
    Array.to_list t.gnodes |> List.filter (fun nd -> not visited.(nd.id))
  in
  if unreachable <> [] then
    err "unreachable processes: %s"
      (String.concat ", " (List.map (fun nd -> nd.label) unreachable))
  else begin
    let has_routers =
      Array.exists (fun nd -> match nd.kind with Router _ -> true | _ -> false) t.gnodes
    in
    let check_node acc nd =
      match acc with
      | Error _ -> acc
      | Ok () -> (
          let ins = in_edges t nd.id and outs = out_edges t nd.id in
          let has_in p = List.exists (fun e -> e.dst_port = p) ins in
          let has_out p = List.exists (fun e -> e.src_port = p) outs in
          match nd.kind with
          | Join ->
              if has_in "state" && has_in "data" then Ok ()
              else err "join %s lacks state/data inputs" nd.label
          | Fork ->
              if has_out "fst" && has_out "snd" then Ok ()
              else err "fork %s lacks fst/snd outputs" nd.label
          | (DfMaster _ | TfMaster _) when has_routers ->
              (* Fig. 1 style templates interpose router processes between
                 the master and its workers; channel counts are the
                 template's business there. *)
              Ok ()
          | DfMaster { nworkers; _ } | TfMaster { nworkers; _ } ->
              let tasks = List.length (out_edges_from_port t nd.id "task") in
              let results =
                List.length (List.filter (fun e -> e.dst_port = "result") ins)
              in
              if tasks <> nworkers then
                err "master %s: %d task edges for %d workers" nd.label tasks nworkers
              else if results <> nworkers then
                err "master %s: %d result edges for %d workers" nd.label results
                  nworkers
              else Ok ()
          | ScmSplit { nparts; _ } ->
              let parts =
                List.length (List.filter (fun e -> e.src_port <> "out") outs)
              in
              if parts = nparts then Ok ()
              else err "scm split %s: %d part edges for %d parts" nd.label parts nparts
          | Input _ | Output _ | Compute _ | ScmCompute _ | ScmMerge _ | DfWorker _
          | TfWorker _ | Mem _ | Router _ ->
              Ok ())
    in
    Array.fold_left check_node (Ok ()) t.gnodes
  end

let to_dot t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n  rankdir=LR;\n" t.gname);
  Array.iter
    (fun nd ->
      let shape = if is_control nd.kind then "ellipse" else "box" in
      let extra =
        if nd.id = t.gentry then ", style=bold"
        else if nd.id = t.gexit then ", peripheries=2"
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=%S, shape=%s%s];\n" nd.id nd.label shape extra))
    t.gnodes;
  List.iter
    (fun e ->
      let label =
        if e.src_port = "out" && e.dst_port = "in" then ""
        else Printf.sprintf " [label=%S]" (e.src_port ^ ">" ^ e.dst_port)
      in
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d%s;\n" e.src e.dst label))
    t.gedges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<v2>process network %s: %d processes, %d channels@]" t.gname
    (nnodes t) (List.length t.gedges)
