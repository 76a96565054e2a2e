type t = {
  node_cycles : Procnet.Graph.node -> float;
  edge_bytes : Procnet.Graph.edge -> int;
}

(* The sequential function a process applies, if any (masters report their
   fold function). *)
let node_function (node : Procnet.Graph.node) =
  match node.kind with
  | Input fn | Output fn | Compute fn -> Some fn
  | ScmCompute { fn; _ } -> Some fn
  | ScmSplit { fn; _ } | ScmMerge { fn; _ } -> Some fn
  | DfMaster { acc; _ } | TfMaster { acc; _ } -> Some acc
  | DfWorker { comp } -> Some comp
  | TfWorker { work } -> Some work
  | Mem _ | Join | Fork | Router _ -> None

(* What the model assumes without an estimate: the cycles of a
   control-only process and of an unestimated function, and the payload of
   a channel. *)
let control_cycles = 500.0
let default_fn_cycles = 10_000.0
let default_edge_bytes = 1024

let make ?(fn_cycles = fun _ -> None) () =
  let node_cycles node =
    match node_function node with
    | None -> control_cycles
    | Some fn -> (
        match fn_cycles fn with Some c -> c | None -> default_fn_cycles)
  in
  { node_cycles; edge_bytes = (fun _ -> default_edge_bytes) }
