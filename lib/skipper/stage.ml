type artifact =
  | Source of string
  | Ast of Minicaml.Ast.program
  | Typed of Minicaml.Ast.program * (string * string) list
  | Ir of Skel.Ir.program * Skel.Value.t option
  | Graph of Procnet.Graph.t
  | Costed of Procnet.Graph.t * Syndex.Cost.t
  | Schedule of Syndex.Schedule.t
  | Macro of string
  | Result of Executive.result

let kind = function
  | Source _ -> "source"
  | Ast _ -> "ast"
  | Typed _ -> "typed"
  | Ir _ -> "ir"
  | Graph _ -> "graph"
  | Costed _ -> "costed"
  | Schedule _ -> "schedule"
  | Macro _ -> "macro"
  | Result _ -> "result"

let rec ir_nodes = function
  | Skel.Ir.Seq _ | Skel.Ir.Scm _ | Skel.Ir.Df _ | Skel.Ir.Tf _ -> 1
  | Skel.Ir.Pipe ts -> 1 + List.fold_left (fun acc t -> acc + ir_nodes t) 0 ts
  | Skel.Ir.Itermem { loop; _ } -> 1 + ir_nodes loop

(* as many as [String.split_on_char '\n'] would return, without the strings *)
let lines s =
  let n = ref 1 in
  for i = 0 to String.length s - 1 do
    if String.unsafe_get s i = '\n' then incr n
  done;
  !n

let size = function
  | Source s -> (String.length s, "bytes")
  | Ast prog -> (List.length prog, "bindings")
  | Typed (_, schemes) -> (List.length schemes, "schemes")
  | Ir (p, _) -> (ir_nodes p.Skel.Ir.body, "ir nodes")
  | Graph g | Costed (g, _) ->
      (Procnet.Graph.nnodes g + Procnet.Graph.nedges g, "procs+chans")
  | Schedule s -> (Syndex.Schedule.nops s + Syndex.Schedule.ncomms s, "slots")
  | Macro m -> (lines m, "lines")
  | Result r -> (List.length r.Executive.outputs, "frames")

let fingerprint art =
  let text =
    match art with
    | Source s -> s
    | Ast prog | Typed (prog, _) ->
        Format.asprintf "%a" Minicaml.Ast.pp_program prog
    | Ir (p, input) ->
        Format.asprintf "%a/%s" Skel.Ir.pp_program p
          (match input with Some v -> Skel.Value.to_string v | None -> "-")
    | Graph g | Costed (g, _) -> Procnet.Graph.to_dot g
    | Schedule s -> Format.asprintf "%a" Syndex.Schedule.pp_summary s
    | Macro m -> m
    | Result r -> Executive.summary r
  in
  Digest.to_hex (Digest.string (kind art ^ ":" ^ text))

let render = function
  | Source s -> s
  | Ast prog -> Format.asprintf "%a" Minicaml.Ast.pp_program prog
  | Typed (_, schemes) ->
      String.concat ""
        (List.map (fun (n, s) -> Printf.sprintf "val %s : %s\n" n s) schemes)
  | Ir (p, input) ->
      Format.asprintf "%a%s" Skel.Ir.pp_program p
        (match input with
        | Some v -> Printf.sprintf "\ninput: %s\n" (Skel.Value.to_string v)
        | None -> "")
  | Graph g -> Procnet.Graph.to_dot g
  | Costed (g, cost) ->
      let b = Buffer.create 256 in
      Buffer.add_string b "node                             cycles      bytes-out\n";
      Array.iter
        (fun node ->
          let out_bytes =
            List.fold_left
              (fun acc e -> acc + cost.Syndex.Cost.edge_bytes e)
              0
              (Procnet.Graph.out_edges g node.Procnet.Graph.id)
          in
          Buffer.add_string b
            (Printf.sprintf "%-28s %10.0f %10d\n" node.Procnet.Graph.label
               (cost.Syndex.Cost.node_cycles node)
               out_bytes))
        (Procnet.Graph.nodes g);
      Buffer.contents b
  | Schedule s ->
      Format.asprintf "%a@.%s" Syndex.Schedule.pp_summary s
        (Syndex.Schedule.gantt s)
  | Macro m -> m
  | Result r -> Executive.summary r ^ "\n"

type report = {
  pass : string;
  start : float;
  wall : float;
  size : int;
  metric : string;
  cached : bool;
  detail : string;
}

(* Stage spans on the unified timeline: one span per report on the compile
   lane, re-based so the first pass starts at the timeline origin (gaps
   between passes — e.g. the simulated run between a map and a later dump —
   are preserved). *)
let emit_reports ?t0 tl reports =
  let t0 =
    match (t0, reports) with
    | Some t0, _ -> t0
    | None, r :: _ -> r.start
    | None, [] -> 0.0
  in
  List.iter
    (fun r ->
      let args =
        [
          ("size", Skipper_trace.Event.Count r.size);
          ("metric", Skipper_trace.Event.Str r.metric);
          ("cached", Skipper_trace.Event.Str (string_of_bool r.cached));
        ]
        @ if r.detail = "" then [] else [ ("detail", Skipper_trace.Event.Str r.detail) ]
      in
      Skipper_trace.Event.span tl ~lane:Skipper_trace.Event.compile_lane
        ~cat:"stage" ~args ~name:r.pass
        ~time:(Float.max 0.0 (r.start -. t0))
        ~dur:r.wall ())
    reports

let pp_report_table ppf reports =
  Format.fprintf ppf "%-12s %10s  %-20s %-7s %s@." "stage" "wall (ms)"
    "artifact" "cached" "notes";
  Format.fprintf ppf "%s@." (String.make 72 '-');
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s %10.2f  %-20s %-7s %s@." r.pass (r.wall *. 1e3)
        (Printf.sprintf "%d %s" r.size r.metric)
        (if r.cached then "yes" else "no")
        r.detail)
    reports;
  let total = List.fold_left (fun acc r -> acc +. r.wall) 0.0 reports in
  Format.fprintf ppf "%s@." (String.make 72 '-');
  Format.fprintf ppf "%-12s %10.2f@." "total" (total *. 1e3)

let reports_to_json reports =
  let module Json = Support.Json in
  let report r =
    Json.Obj
      [
        ("pass", Json.Str r.pass);
        ("wall_ms", Json.Fixed (3, r.wall *. 1e3));
        ("size", Json.int r.size);
        ("metric", Json.Str r.metric);
        ("cached", Json.Bool r.cached);
        ("detail", Json.Str r.detail);
      ]
  in
  Json.to_string (Json.Arr (List.map report reports))
