module G = Procnet.Graph

(* The listing is written piece by piece into one buffer: a schedule of a
   few hundred processes is a few hundred lines, and formatting each
   through [Printf] cost more than everything else the emitter does. *)

let add_chan buf (e : G.edge) =
  Buffer.add_string buf "chan_";
  Buffer.add_string buf (string_of_int e.src);
  Buffer.add_char buf '_';
  Buffer.add_string buf (string_of_int e.dst);
  Buffer.add_char buf '_';
  Buffer.add_string buf e.dst_port

let chan_name e =
  let buf = Buffer.create 24 in
  add_chan buf e;
  Buffer.contents buf

let channel_table g ~placement =
  List.filter_map
    (fun (e : G.edge) ->
      let pa = placement.(e.src) and pb = placement.(e.dst) in
      if pa <> pb then Some (chan_name e, pa, pb) else None)
    (G.edges g)

(* One kernel-primitive line: [indent ^ s ^ "\n"]; [open_line] and
   [close_line] frame a line written in pieces. *)
let open_line buf = Buffer.add_string buf "      "
let close_line buf = Buffer.add_char buf '\n'

let line buf s =
  open_line buf;
  Buffer.add_string buf s;
  close_line buf

(* [comp_(fn<suffix>)] *)
let comp buf fn suffix =
  open_line buf;
  Buffer.add_string buf "comp_(";
  Buffer.add_string buf fn;
  Buffer.add_string buf suffix;
  Buffer.add_char buf ')';
  close_line buf

let port i = "p" ^ string_of_int i

(* One kernel-primitive line per communication or computation, mirroring the
   executive behaviours. *)
let add_ops buf g (node : G.node) =
  let transfer prim (e : G.edge) p =
    open_line buf;
    Buffer.add_string buf prim;
    add_chan buf e;
    Buffer.add_string buf ", ";
    Buffer.add_string buf p;
    Buffer.add_char buf ')';
    close_line buf
  in
  let recvs p =
    List.iter
      (fun (e : G.edge) -> if e.dst_port = p then transfer "recv_(" e e.dst_port)
      (G.in_edges g node.id)
  in
  let sends p =
    List.iter
      (fun (e : G.edge) -> if e.src_port = p then transfer "send_(" e e.src_port)
      (G.out_edges g node.id)
  in
  match node.kind with
  | G.Input fn ->
      comp buf fn ", frame";
      sends "out"
  | G.Output fn ->
      recvs "in";
      comp buf fn ", display"
  | G.Compute fn | G.ScmCompute { fn; _ } ->
      recvs "in";
      comp buf fn "";
      sends "out"
  | G.ScmSplit { fn; nparts } ->
      recvs "in";
      comp buf fn (", nparts=" ^ string_of_int nparts);
      for i = 0 to nparts - 1 do
        sends (port i)
      done
  | G.ScmMerge { fn; nparts } ->
      for i = 0 to nparts - 1 do
        recvs (port i)
      done;
      comp buf fn "";
      sends "out"
  | G.DfMaster { acc; nworkers; _ } | G.TfMaster { acc; nworkers; _ } ->
      recvs "in";
      line buf ("farm_(workers=" ^ string_of_int nworkers ^ ") {");
      line buf "  dispatch_(task)";
      line buf ("  on_result_ { comp_(" ^ acc ^ ") ; dispatch_(task) }");
      line buf "}";
      sends "out"
  | G.DfWorker { comp } ->
      line buf "serve_ {";
      line buf ("  recv_task_ ; comp_(" ^ comp ^ ") ; send_result_");
      line buf "}"
  | G.TfWorker { work } ->
      line buf "serve_ {";
      line buf
        ("  recv_task_ ; comp_(" ^ work ^ ") ; send_packets_ ; send_result_");
      line buf "}"
  | G.Mem _ ->
      sends "out";
      recvs "update"
  | G.Join ->
      recvs "state";
      recvs "data";
      line buf "pair_";
      sends "out"
  | G.Fork ->
      recvs "in";
      line buf "unpair_";
      sends "fst";
      sends "snd"
  | G.Router { dir = `Mw } -> line buf "route_mw_"
  | G.Router { dir = `Wm } -> line buf "route_wm_"

(* Processor [p]'s program: the processes it hosts, in node order. *)
let add_processor buf g p nodes =
  Buffer.add_string buf "define(`P";
  Buffer.add_string buf (string_of_int p);
  Buffer.add_string buf "_PROGRAM', `\n";
  List.iter
    (fun (node : G.node) ->
      Buffer.add_string buf "  thread_(`";
      Buffer.add_string buf node.label;
      Buffer.add_string buf "',  dnl ";
      Buffer.add_string buf (G.kind_name node.kind);
      Buffer.add_string buf "\n    loop_(\n";
      add_ops buf g node;
      Buffer.add_string buf "    ))\n")
    nodes;
  Buffer.add_string buf "')\n"

let emit g ~placement ~arch =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf "divert(-1)\ndnl SKiPPER distributed executive for ";
  Buffer.add_string buf (G.name g);
  Buffer.add_string buf " on ";
  Buffer.add_string buf (Archi.name arch);
  Buffer.add_string buf
    "\ndnl generated macro-code; inline kernel primitives to obtain target \
     code\ndivert(0)\n";
  List.iter
    (fun (e : G.edge) ->
      let pa = placement.(e.src) and pb = placement.(e.dst) in
      if pa <> pb then begin
        Buffer.add_string buf "alloc_channel_(";
        add_chan buf e;
        Buffer.add_string buf ", P";
        Buffer.add_string buf (string_of_int pa);
        Buffer.add_string buf ", P";
        Buffer.add_string buf (string_of_int pb);
        Buffer.add_string buf ")\n"
      end)
    (G.edges g);
  (* every processor's nodes, bucketed once, each list in node order *)
  let hosted = Array.make (Archi.nprocs arch) [] in
  let nodes = G.nodes g in
  for i = Array.length nodes - 1 downto 0 do
    let node = nodes.(i) in
    hosted.(placement.(node.id)) <- node :: hosted.(placement.(node.id))
  done;
  Array.iteri (fun p on_p -> if on_p <> [] then add_processor buf g p on_p) hosted;
  Buffer.contents buf
