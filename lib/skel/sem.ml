exception Emulation_error of string

let error fmt = Printf.ksprintf (fun msg -> raise (Emulation_error msg)) fmt

let as_list what = function
  | Value.List vs -> vs
  | v -> error "%s: expected a list, got %s" what (Value.to_string v)

let as_pair what = function
  | Value.Tuple [ a; b ] -> (a, b)
  | v -> error "%s: expected a pair, got %s" what (Value.to_string v)

(* The interpreter is parameterised by the function-application primitive so
   the instrumented (cost-summing) variant shares the control structure.

   Stages are compiled to closures once per run: a stateful farm closes over
   the mutable cells holding its carried state, so driving the closure over
   a stream of frames threads that state exactly as the mode's declarative
   definition demands — this closure tree IS the sequential-emulation oracle
   the parallel engine is tested against. *)
let rec compile_with apply table stage =
  match stage with
  | Ir.Seq f -> fun v -> apply table f v
  | Ir.Pipe stages ->
      let fns = List.map (compile_with apply table) stages in
      fun v -> List.fold_left (fun v fn -> fn v) v fns
  | Ir.Scm { nparts; split; compute; merge } ->
      let split n v =
        as_list ("scm split " ^ split)
          (apply table split (Value.Tuple [ Value.Int n; v ]))
      in
      Skeletons.scm nparts split (apply table compute) (fun ys ->
          apply table merge (Value.List ys))
  | Ir.Df { nworkers = n; comp; acc; init; state } -> (
      let comp = apply table comp
      and acc z y = apply table acc (Value.Tuple [ z; y ])
      and items v = as_list "df input" v in
      let stateful what (s, x) =
        as_pair what (comp (Value.Tuple [ s; x ]))
      in
      match state with
      | Ir.Stateless -> fun v -> Skeletons.df n comp acc init (items v)
      | Ir.Read_only ->
          let env_seed = as_pair "readonly df init" init in
          let comp (e, x) = comp (Value.Tuple [ e; x ]) in
          fun v -> Skeletons.df_ro n comp acc env_seed (items v)
      | Ir.Accumulator ->
          let carry = ref init in
          fun v ->
            carry := Skeletons.df n comp acc !carry (items v);
            !carry
      | Ir.Owner ->
          let states, seed = as_pair "owner df init" init in
          let states = ref (as_list "owner df partition states" states) in
          fun v ->
            let states', z =
              Skeletons.df_own n (stateful "owner df comp result") acc
                (!states, seed) (items v)
            in
            states := states';
            z
      | Ir.Resource ->
          let s0, seed = as_pair "resource df init" init in
          let res = ref s0 in
          fun v ->
            let s, z =
              Skeletons.df_res n (stateful "resource df comp result") acc
                (!res, seed) (items v)
            in
            res := s;
            z)
  | Ir.Tf { nworkers; work; acc; init } ->
      let work x =
        let subs, y = as_pair "tf work result" (apply table work x) in
        (as_list "tf new packets" subs, y)
      and acc z y = apply table acc (Value.Tuple [ z; y ]) in
      fun v -> Skeletons.tf nworkers work acc init (as_list "tf input" v)
  | Ir.Itermem _ ->
      fun _ -> error "itermem inside eval_stage: stream loops are driven by run"

(* Single-application view: fresh state per call, so a stateful stage
   evaluated once behaves as its first frame. *)
let eval_with apply table stage v = compile_with apply table stage v

let eval_stage table stage v = eval_with Funtable.apply table stage v

let eval_stage_cost table stage v =
  let cycles = ref 0.0 in
  let apply table f v =
    cycles := !cycles +. Funtable.cost table f v;
    Funtable.apply table f v
  in
  let result = eval_with apply table stage v in
  (result, !cycles)

let run_with apply table prog input =
  match prog.Ir.body with
  | Ir.Itermem { input = inp; loop; output; init } ->
      let step = compile_with apply table loop in
      let rec drive state i outputs =
        if i >= prog.Ir.frames then
          Value.Tuple [ state; Value.List (List.rev outputs) ]
        else
          let x = apply table inp (Value.Tuple [ input; Value.Int i ]) in
          let state', y =
            as_pair "itermem loop result" (step (Value.Tuple [ state; x ]))
          in
          let shown = apply table output y in
          drive state' (i + 1) (shown :: outputs)
      in
      drive init 0 []
  | body when Ir.has_stateful body && prog.Ir.frames > 1 ->
      (* A stateful farm outside itermem still streams: the executive feeds
         the same input every frame and reports the last frame's output, so
         the oracle drives the compiled body the same way. *)
      let step = compile_with apply table body in
      let rec drive i last =
        if i >= prog.Ir.frames then last else drive (i + 1) (step input)
      in
      drive 1 (step input)
  | body -> eval_with apply table body input

let run table prog input = run_with Funtable.apply table prog input

(* Per-frame oracle outputs for a non-itermem program: what the executive's
   [outputs] list must equal frame by frame. *)
let run_stream table prog input =
  match prog.Ir.body with
  | Ir.Itermem _ ->
      error "run_stream: itermem programs already stream (use run)"
  | body ->
      let step = compile_with Funtable.apply table body in
      List.init prog.Ir.frames (fun _ -> step input)

let run_cost table prog input =
  let cycles = ref 0.0 in
  let apply table f v =
    cycles := !cycles +. Funtable.cost table f v;
    Funtable.apply table f v
  in
  let result = run_with apply table prog input in
  (result, !cycles)
