let gensym =
  let n = ref 0 in
  fun base ->
    incr n;
    Printf.sprintf "%s__n%d" base !n

let as_function table stage =
  if List.mem "itermem" (Ir.skeleton_instances stage) then
    invalid_arg "Nest.as_function: itermem cannot be nested";
  let name =
    gensym
      (match Ir.skeleton_instances stage with
      | skel :: _ -> "nested_" ^ skel
      | [] -> "nested_pipe")
  in
  Funtable.register table name ~arity:1
    ~cost:(fun v -> snd (Sem.eval_stage_cost table stage v))
    (fun v -> Sem.eval_stage table stage v);
  name

let df ~table ~nworkers ~comp ~acc ~init =
  Ir.Df
    { nworkers; comp = as_function table comp; acc; init; state = Ir.Stateless }

let scm ~table ~nparts ~split ~compute ~merge =
  Ir.Scm { nparts; split; compute = as_function table compute; merge }
