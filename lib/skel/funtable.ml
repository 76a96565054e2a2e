type entry = {
  name : string;
  arity : int;
  apply : Value.t -> Value.t;
  cost : Value.t -> float;
}

type spec = Whole | Proj of int | Const of Value.t

type derivation =
  | Wrapper of { base : string; specs : spec list }
  | Compose of { f : string; g : string }
  | Serial_df of { comp : string; acc : string; init : Value.t }
  | Serial_tf of { work : string; acc : string; init : Value.t }
  | Serial_scm of { split : string; compute : string; merge : string }

type t = {
  entries : (string, entry) Hashtbl.t;
  derived : (string, derivation) Hashtbl.t;
  mutable log : (string * derivation) list;  (** newest first *)
}

let create () =
  { entries = Hashtbl.create 32; derived = Hashtbl.create 8; log = [] }

let default_cost _ = 1000.0

let register t ?(arity = 1) ?(cost = default_cost) name apply =
  if Hashtbl.mem t.entries name then
    invalid_arg (Printf.sprintf "Funtable.register: %S already registered" name);
  Hashtbl.replace t.entries name { name; arity; apply; cost }

let find_opt t name = Hashtbl.find_opt t.entries name

let find t name =
  match find_opt t name with
  | Some e -> e
  | None -> failwith (Printf.sprintf "Funtable: unknown function %S" name)

let mem t name = Hashtbl.mem t.entries name

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.entries [] |> List.sort compare

let apply t name v = (find t name).apply v
let cost t name v = (find t name).cost v

let of_list entries =
  let t = create () in
  List.iter
    (fun (name, arity, apply, cost) -> register t ~arity ~cost name apply)
    entries;
  t

(* ------------------------------------------------------------------ *)
(* Derived entries                                                     *)

(* Build the (apply, cost) pair a derivation describes. Bases are resolved
   eagerly, so a derivation can only be installed once everything it
   references exists — replay in log order preserves this. *)
let realise t = function
  | Wrapper { base; specs } ->
      let entry = find t base in
      let build v =
        let component i =
          match v with
          | Value.Tuple vs when i < List.length vs -> List.nth vs i
          | _ ->
              failwith
                (base ^ ": dataflow value has no component " ^ string_of_int i)
        in
        let args =
          List.map
            (function Whole -> v | Proj i -> component i | Const c -> c)
            specs
        in
        match args with [ a ] -> a | args -> Value.Tuple args
      in
      ((fun v -> entry.apply (build v)), fun v -> entry.cost (build v))
  | Compose { f; g } ->
      let ef = find t f and eg = find t g in
      (* Cost of f plus cost of g on f's result: evaluating f here would
         run user code inside a cost model, so approximate g's argument by
         f's input — cost models are estimates by nature. *)
      ((fun v -> eg.apply (ef.apply v)), fun v -> ef.cost v +. eg.cost v)
  | Serial_df { comp; acc; init } ->
      let ec = find t comp and ea = find t acc in
      let apply v =
        match v with
        | Value.List xs ->
            List.fold_left
              (fun z x -> ea.apply (Value.Tuple [ z; ec.apply x ]))
              init xs
        | other ->
            raise
              (Value.Type_error
                 ("df expects a list, got " ^ Value.to_string other))
      and cost v =
        match v with
        | Value.List xs ->
            List.fold_left
              (fun total x -> total +. ec.cost x +. ea.cost x)
              500.0 xs
        | _ -> 500.0
      in
      (apply, cost)
  | Serial_tf { work; acc; init } ->
      let ew = find t work and ea = find t acc in
      let apply v =
        match v with
        | Value.List xs ->
            let rec loop z = function
              | [] -> z
              | x :: rest -> (
                  match ew.apply x with
                  | Value.Tuple [ Value.List subs; y ] ->
                      loop (ea.apply (Value.Tuple [ z; y ])) (subs @ rest)
                  | other ->
                      raise
                        (Value.Type_error
                           ("tf work returned " ^ Value.to_string other)))
            in
            loop init xs
        | other ->
            raise
              (Value.Type_error
                 ("tf expects a list, got " ^ Value.to_string other))
      and cost v =
        match v with
        | Value.List xs ->
            (* Lower bound: at least one work + acc per initial packet. *)
            List.fold_left
              (fun total x -> total +. ew.cost x +. ea.cost x)
              500.0 xs
        | _ -> 500.0
      in
      (apply, cost)
  | Serial_scm { split; compute; merge } ->
      let es = find t split and ec = find t compute and em = find t merge in
      let apply v =
        match es.apply (Value.Tuple [ Value.Int 1; v ]) with
        | Value.List parts ->
            em.apply (Value.List (List.map ec.apply parts))
        | other ->
            raise
              (Value.Type_error
                 ("scm split returned " ^ Value.to_string other))
      and cost v = es.cost v +. ec.cost v +. em.cost v in
      (apply, cost)

let derive t name derivation =
  match Hashtbl.find_opt t.derived name with
  | Some existing when existing = derivation -> ()
  | Some _ ->
      invalid_arg
        (Printf.sprintf
           "Funtable.derive: %S already derived with a different recipe" name)
  | None ->
      if Hashtbl.mem t.entries name then
        invalid_arg
          (Printf.sprintf "Funtable.derive: %S already registered" name);
      let apply, cost = realise t derivation in
      Hashtbl.replace t.entries name { name; arity = 1; apply; cost };
      Hashtbl.replace t.derived name derivation;
      t.log <- (name, derivation) :: t.log

let derivations t = List.rev t.log

let replay t ds = List.iter (fun (name, d) -> derive t name d) ds

(* ------------------------------------------------------------------ *)
(* Content digest                                                      *)

let digest t =
  let base =
    Hashtbl.fold
      (fun name e acc ->
        if Hashtbl.mem t.derived name then acc else (name, e.arity) :: acc)
      t.entries []
    |> List.sort compare
    |> List.map (fun (name, arity) -> Printf.sprintf "%s/%d" name arity)
  in
  Digest.to_hex (Digest.string (String.concat "\x00" base))
