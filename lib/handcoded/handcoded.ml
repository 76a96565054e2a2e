module V = Skel.Value

type result = {
  marks_per_frame : int list;
  latencies : float list;
  output_values : Skel.Value.t list;
  stats : Machine.Sim.stats;
}

let call table fn v =
  let entry = Skel.Funtable.find table fn in
  Machine.Proc.compute (entry.cost v);
  entry.apply v

let run ?input_period ~config ~frames arch =
  let table = Tracking.Funcs.table config in
  let sim = Machine.Sim.create arch in
  let nprocs = Archi.nprocs arch in
  let nworkers = config.Tracking.Funcs.nproc in
  let outputs = ref [] in
  (* Spawn order fixes the pid layout: worker i has pid i, the master has
     pid nworkers. Worker i sits on processor (i+1) mod nprocs, like the
     canonical skeleton placement. *)
  let master_pid = nworkers in
  let _workers =
    Array.init nworkers (fun i ->
        Machine.Sim.spawn sim
          ~name:(Printf.sprintf "hand-worker%d" i)
          ~on:((i + 1) mod nprocs)
          (fun () ->
            let rec serve () =
              match Machine.Proc.recv "task" with
              | V.Tuple [ V.Int idx; item ] ->
                  let marks = call table "detect_mark" item in
                  Machine.Proc.send master_pid "result" (V.Tuple [ V.Int idx; marks ]);
                  serve ()
              | _ -> failwith "hand-worker: bad task"
            in
            serve ()))
  in
  let farm windows =
    let queue = Queue.create () in
    List.iter (fun wv -> Queue.add wv queue) windows;
    let marks = ref (V.List []) in
    let outstanding = ref 0 in
    let feed widx =
      Machine.Proc.send widx "task" (V.Tuple [ V.Int widx; Queue.pop queue ])
    in
    for w = 0 to nworkers - 1 do
      if not (Queue.is_empty queue) then begin
        feed w;
        incr outstanding
      end
    done;
    while !outstanding > 0 do
      match Machine.Proc.recv "result" with
      | V.Tuple [ V.Int widx; y ] ->
          marks := call table "accum_marks" (V.Tuple [ !marks; y ]);
          if Queue.is_empty queue then decr outstanding else feed widx
      | _ -> failwith "hand-master: bad result"
    done;
    !marks
  in
  let _master =
    Machine.Sim.spawn sim ~name:"hand-master" ~on:0 (fun () ->
        let dims = Tracking.Funcs.input_value config in
        let state = ref (call table "init_state" V.Unit) in
        for i = 0 to frames - 1 do
          (match input_period with
          | Some p -> Machine.Proc.sleep_until (float_of_int i *. p)
          | None -> ());
          let img = call table "read_img" (V.Tuple [ dims; V.Int i ]) in
          let windows =
            match call table "get_windows_stage" (V.Tuple [ !state; img ]) with
            | V.List ws -> ws
            | _ -> failwith "hand-master: get_windows"
          in
          let marks = farm windows in
          (match call table "predict" marks with
          | V.Tuple [ st'; display ] ->
              state := st';
              let shown = call table "display_marks" display in
              outputs := (shown, Machine.Proc.now ()) :: !outputs
          | _ -> failwith "hand-master: predict")
        done)
  in
  if master_pid <> _master then failwith "Handcoded.run: pid layout changed";
  let _ = Machine.Sim.run sim in
  let outs = List.rev !outputs in
  let p = Option.value ~default:0.0 input_period in
  {
    marks_per_frame =
      List.map (fun (v, _) -> match v with V.List l -> List.length l | _ -> 0) outs;
    latencies = List.mapi (fun i (_, t) -> t -. (float_of_int i *. p)) outs;
    output_values = List.map fst outs;
    stats = Machine.Sim.stats sim;
  }
