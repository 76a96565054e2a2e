let df_ring ~nworkers ~comp ~acc ~init =
  if nworkers < 1 then invalid_arg "Templates.df_ring: nworkers < 1";
  let module B = Graph.Builder in
  let n = nworkers in
  let b = B.create (Printf.sprintf "df-ring-%d" n) in
  let master =
    B.add_node b ~label:"Master"
      (Graph.DfMaster { acc; init; nworkers = n; state = Skel.Ir.Stateless })
  in
  let workers =
    Array.init n (fun i ->
        B.add_node b ~label:(Printf.sprintf "Worker%d" (i + 1)) (Graph.DfWorker { comp }))
  in
  (* Routers live on P1 .. P(n-1). *)
  let mw =
    Array.init (max 0 (n - 1)) (fun i ->
        B.add_node b ~label:(Printf.sprintf "M->W@%d" (i + 1)) (Graph.Router { dir = `Mw }))
  in
  let wm =
    Array.init (max 0 (n - 1)) (fun i ->
        B.add_node b ~label:(Printf.sprintf "W->M@%d" (i + 1)) (Graph.Router { dir = `Wm }))
  in
  if n = 1 then begin
    (* Degenerate ring P0-P1: direct master/worker channels. *)
    B.add_edge b ~src_port:"task" master workers.(0);
    B.add_edge b ~dst_port:"result" workers.(0) master
  end
  else begin
    (* Task path: master -> MW@1; each MW@i serves its local worker and
       forwards outward; the last MW serves the final worker directly. *)
    B.add_edge b ~src_port:"task" master mw.(0);
    for i = 0 to n - 2 do
      B.add_edge b ~src_port:"serve" mw.(i) workers.(i);
      if i < n - 2 then B.add_edge b ~src_port:"fwd" mw.(i) mw.(i + 1)
      else B.add_edge b ~src_port:"fwd" mw.(i) workers.(n - 1)
    done;
    (* Result path: each worker feeds its local WM (the last worker feeds the
       nearest one inward); WMs chain back to the master. *)
    for i = 0 to n - 2 do
      B.add_edge b ~dst_port:"local" workers.(i) wm.(i)
    done;
    B.add_edge b ~dst_port:"fwd" workers.(n - 1) wm.(n - 2);
    for i = n - 2 downto 1 do
      B.add_edge b ~dst_port:"fwd" wm.(i) wm.(i - 1)
    done;
    B.add_edge b ~dst_port:"result" wm.(0) master
  end;
  B.freeze b ~entry:master ~exit_node:master
