(* How a [Df] farm's state is accessed across tasks and frames (Danelutto,
   Torquati & Kilpatrick's classification of state access patterns in
   embarrassingly parallel computations). [Stateless] is the paper's
   original df. *)
type state_mode = Stateless | Read_only | Owner | Accumulator | Resource

let state_mode_name = function
  | Stateless -> "stateless"
  | Read_only -> "readonly"
  | Owner -> "owner"
  | Accumulator -> "accumulator"
  | Resource -> "resource"

let state_mode_of_string = function
  | "stateless" -> Some Stateless
  | "readonly" | "read-only" | "read_only" -> Some Read_only
  | "owner" -> Some Owner
  | "accumulator" | "acc" -> Some Accumulator
  | "resource" -> Some Resource
  | _ -> None

let state_mode_names =
  [ "stateless"; "readonly"; "owner"; "accumulator"; "resource" ]

type t =
  | Seq of string
  | Pipe of t list
  | Scm of { nparts : int; split : string; compute : string; merge : string }
  | Df of {
      nworkers : int;
      comp : string;
      acc : string;
      init : Value.t;
      state : state_mode;
    }
  | Tf of { nworkers : int; work : string; acc : string; init : Value.t }
  | Itermem of { input : string; loop : t; output : string; init : Value.t }

type program = { name : string; body : t; frames : int }

let program ?(frames = 1) name body = { name; body; frames }

let rec skeleton_instances = function
  | Seq _ -> []
  | Pipe stages -> List.concat_map skeleton_instances stages
  | Scm _ -> [ "scm" ]
  | Df { state = Stateless; _ } -> [ "df" ]
  | Df { state; _ } -> [ "df_" ^ state_mode_name state ]
  | Tf _ -> [ "tf" ]
  | Itermem { loop; _ } -> "itermem" :: skeleton_instances loop

(* Does any farm in the stage tree carry state across tasks or frames?
   Drives the executive's choice between the paper's plain farm protocol
   and the stateful engine. *)
let rec has_stateful = function
  | Seq _ | Scm _ | Tf _ -> false
  | Df { state; _ } -> state <> Stateless
  | Pipe stages -> List.exists has_stateful stages
  | Itermem { loop; _ } -> has_stateful loop

let rec with_state_mode mode = function
  | (Seq _ | Scm _ | Tf _) as s -> s
  | Df df -> Df { df with state = mode }
  | Pipe stages -> Pipe (List.map (with_state_mode mode) stages)
  | Itermem im -> Itermem { im with loop = with_state_mode mode im.loop }

(* The init value of a stateful farm has a mode-dependent shape (see the
   mode table in DESIGN.md); checked at validation so a bad spec fails
   before the executive or the oracle trips on it. *)
let check_state_shape ~nworkers ~state init =
  match (state, init) with
  | (Stateless | Accumulator), _ -> Ok ()
  | (Read_only | Resource), Value.Tuple [ _; _ ] -> Ok ()
  | Read_only, _ ->
      Error "readonly df init must be a pair (shared_env, fold_seed)"
  | Resource, _ ->
      Error "resource df init must be a pair (resource_state, fold_seed)"
  | Owner, Value.Tuple [ Value.List states; _ ] ->
      if List.length states = nworkers then Ok ()
      else
        Error
          (Printf.sprintf
             "owner df init must carry one partition state per worker (got \
              %d states for %d workers)"
             (List.length states) nworkers)
  | Owner, _ ->
      Error "owner df init must be a pair (partition_state_list, fold_seed)"

let validate table prog =
  let ( let* ) = Result.bind in
  let check_fn name =
    if Funtable.mem table name then Ok ()
    else Error (Printf.sprintf "unknown sequential function %S" name)
  in
  let check_pos what n =
    if n > 0 then Ok () else Error (Printf.sprintf "%s must be positive, got %d" what n)
  in
  let rec check ~depth ~top = function
    | Seq f -> check_fn f
    | Pipe stages ->
        List.fold_left
          (fun acc stage ->
            let* () = acc in
            check ~depth ~top:false stage)
          (Ok ()) stages
    | Scm { nparts; split; compute; merge } ->
        let* () = check_pos "scm nparts" nparts in
        let* () = check_fn split in
        let* () = check_fn compute in
        check_fn merge
    | Df { nworkers; comp; acc; init; state } ->
        let* () = check_pos "df nworkers" nworkers in
        let* () = check_fn comp in
        let* () = check_fn acc in
        check_state_shape ~nworkers ~state init
    | Tf { nworkers; work; acc; _ } ->
        let* () = check_pos "tf nworkers" nworkers in
        let* () = check_fn work in
        check_fn acc
    | Itermem { input; loop; output; _ } ->
        if not top then Error "itermem is only allowed at the top level"
        else
          let* () = check_fn input in
          let* () = check_fn output in
          check ~depth:(depth + 1) ~top:false loop
  in
  let* () = check ~depth:0 ~top:true prog.body in
  if prog.frames <= 0 then Error "program frame count must be positive" else Ok ()

let rec pp ppf = function
  | Seq f -> Format.fprintf ppf "seq %s" f
  | Pipe stages ->
      Format.fprintf ppf "(@[%a@])"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ |> ")
           pp)
        stages
  | Scm { nparts; split; compute; merge } ->
      Format.fprintf ppf "scm %d %s %s %s" nparts split compute merge
  | Df { nworkers; comp; acc; init; state = Stateless } ->
      Format.fprintf ppf "df %d %s %s %a" nworkers comp acc Value.pp init
  | Df { nworkers; comp; acc; init; state } ->
      Format.fprintf ppf "df[%s] %d %s %s %a" (state_mode_name state) nworkers
        comp acc Value.pp init
  | Tf { nworkers; work; acc; init } ->
      Format.fprintf ppf "tf %d %s %s %a" nworkers work acc Value.pp init
  | Itermem { input; loop; output; init } ->
      Format.fprintf ppf "@[<2>itermem %s@ (%a)@ %s@ %a@]" input pp loop output
        Value.pp init

let pp_program ppf prog =
  Format.fprintf ppf "@[<v2>program %s (frames=%d):@ %a@]" prog.name prog.frames
    pp prog.body
