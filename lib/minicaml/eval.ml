module Env = Map.Make (String)
module V = Skel.Value

exception Runtime_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

type value =
  | Vbase of V.t
  | Vtuple of value list
  | Vlist of value list
  | Vclos of closure
  | Vbuiltin of string * int * value list

and closure = {
  params : Ast.pattern list;
  body : Ast.expr;
  cenv : value Env.t ref;
}

type ctx = {
  table : Skel.Funtable.t;
  frames : int;
  mutable collected : V.t list;
  mutable final_state : V.t option;
  mutable cycles : float;
}

type env = value Env.t

let make_ctx ?(frames = 1) table =
  { table; frames; collected = []; final_state = None; cycles = 0.0 }

let rec to_skel = function
  | Vbase v -> v
  | Vtuple vs -> V.Tuple (List.map to_skel vs)
  | Vlist vs -> V.List (List.map to_skel vs)
  | Vclos _ -> error "cannot pass a closure to an external function"
  | Vbuiltin (name, _, _) -> error "cannot pass builtin %s to an external function" name

let of_skel = function
  | V.Tuple vs -> Vtuple (List.map (fun v -> Vbase v) vs)
  | V.List vs -> Vlist (List.map (fun v -> Vbase v) vs)
  | v -> Vbase v

let rec value_equal a b =
  match (a, b) with
  | Vbase x, Vbase y -> V.equal x y
  | Vtuple xs, Vtuple ys | Vlist xs, Vlist ys ->
      List.length xs = List.length ys && List.for_all2 value_equal xs ys
  (* Mixed representations of the same data compare through Skel values. *)
  | (Vbase _ | Vtuple _ | Vlist _), (Vbase _ | Vtuple _ | Vlist _) ->
      V.equal (to_skel a) (to_skel b)
  | _ -> error "cannot compare functional values"

let rec pp_value ppf = function
  | Vbase v -> V.pp ppf v
  | Vtuple vs ->
      Format.fprintf ppf "(@[%a@])"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_value)
        vs
  | Vlist vs ->
      Format.fprintf ppf "[@[%a@]]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_value)
        vs
  | Vclos _ -> Format.pp_print_string ppf "<fun>"
  | Vbuiltin (name, _, _) -> Format.fprintf ppf "<builtin %s>" name

let value_compare a b =
  match (a, b) with
  | Vbase (V.Int x), Vbase (V.Int y) -> compare x y
  | Vbase (V.Float x), Vbase (V.Float y) -> compare x y
  | Vbase (V.Str x), Vbase (V.Str y) -> compare x y
  | Vbase (V.Bool x), Vbase (V.Bool y) -> compare x y
  | a, b -> V.compare (to_skel a) (to_skel b)

let as_int = function Vbase (V.Int n) -> n | v -> error "expected int, got %s" (Format.asprintf "%a" pp_value v)
let as_float = function Vbase (V.Float f) -> f | v -> error "expected float, got %s" (Format.asprintf "%a" pp_value v)
let as_bool = function Vbase (V.Bool b) -> b | v -> error "expected bool, got %s" (Format.asprintf "%a" pp_value v)
let as_string = function Vbase (V.Str s) -> s | v -> error "expected string, got %s" (Format.asprintf "%a" pp_value v)
let as_list = function
  | Vlist vs -> vs
  | Vbase (V.List vs) -> List.map (fun v -> Vbase v) vs
  | v -> error "expected list, got %s" (Format.asprintf "%a" pp_value v)
let as_pair = function
  | Vtuple [ a; b ] -> (a, b)
  | Vbase (V.Tuple [ a; b ]) -> (Vbase a, Vbase b)
  | v -> error "expected pair, got %s" (Format.asprintf "%a" pp_value v)

(* ------------------------------------------------------------------ *)
(* Application                                                         *)

let to_list_opt = function
  | Vlist vs -> Some vs
  | Vbase (V.List vs) -> Some (List.map (fun v -> Vbase v) vs)
  | _ -> None

(* Pattern matching: [None] when the value does not match. *)
let rec try_match env pat v =
  let ( let* ) = Option.bind in
  match pat with
  | Ast.Pvar (x, _) -> Some (Env.add x v env)
  | Ast.Pwild _ -> Some env
  | Ast.Punit _ -> ( match v with Vbase V.Unit -> Some env | _ -> None)
  | Ast.Pconst (c, _) -> (
      match (c, v) with
      | Ast.Cint a, Vbase (V.Int b) when a = b -> Some env
      | Ast.Cfloat a, Vbase (V.Float b) when a = b -> Some env
      | Ast.Cbool a, Vbase (V.Bool b) when a = b -> Some env
      | Ast.Cstring a, Vbase (V.Str b) when String.equal a b -> Some env
      | Ast.Cunit, Vbase V.Unit -> Some env
      | _ -> None)
  | Ast.Pnil _ -> (
      match to_list_opt v with Some [] -> Some env | Some _ | None -> None)
  | Ast.Pcons (ph, pt, _) -> (
      match to_list_opt v with
      | Some (h :: t) ->
          let* env = try_match env ph h in
          try_match env pt (Vlist t)
      | Some [] | None -> None)
  | Ast.Ptuple (ps, _) -> (
      let vs =
        match v with
        | Vtuple vs -> Some vs
        | Vbase (V.Tuple vs) -> Some (List.map (fun v -> Vbase v) vs)
        | _ -> None
      in
      match vs with
      | Some vs when List.length vs = List.length ps ->
          List.fold_left2
            (fun env p v ->
              let* env = env in
              try_match env p v)
            (Some env) ps vs
      | Some _ | None -> None)

(* Irrefutable use (let bindings and function parameters). *)
let bind_pattern env pat v =
  match try_match env pat v with
  | Some env -> env
  | None ->
      error "pattern %s does not match %s"
        (Format.asprintf "%a" Ast.pp_pattern pat)
        (Format.asprintf "%a" pp_value v)

let rec apply ctx f arg =
  match f with
  | Vclos { params = [ p ]; body; cenv } -> eval ctx (bind_pattern !cenv p arg) body
  | Vclos { params = p :: rest; body; cenv } ->
      Vclos { params = rest; body; cenv = ref (bind_pattern !cenv p arg) }
  | Vclos { params = []; _ } -> error "closure with no parameters"
  | Vbuiltin (name, arity, got) ->
      let got = got @ [ arg ] in
      if List.length got >= arity then apply_builtin ctx name got
      else Vbuiltin (name, arity, got)
  | v -> error "cannot apply non-function %s" (Format.asprintf "%a" pp_value v)

and apply2 ctx f a b = apply ctx (apply ctx f a) b

(* A stateful df's [comp] takes [(state, item)] and answers a pair. *)
and stateful ctx comp (s, x) = as_pair (apply ctx comp (Vtuple [ s; x ]))

and apply_external ctx name args =
  let entry = Skel.Funtable.find ctx.table name in
  let packed =
    match args with [ v ] -> to_skel v | vs -> V.Tuple (List.map to_skel vs)
  in
  ctx.cycles <- ctx.cycles +. entry.Skel.Funtable.cost packed;
  of_skel (entry.Skel.Funtable.apply packed)

and apply_builtin ctx name args =
  match (name, args) with
  | "map", [ f; l ] -> Vlist (List.map (apply ctx f) (as_list l))
  | "fold_left", [ f; z; l ] ->
      List.fold_left (fun acc x -> apply ctx (apply ctx f acc) x) z (as_list l)
  | "length", [ l ] -> Vbase (V.Int (List.length (as_list l)))
  | "rev", [ l ] -> Vlist (List.rev (as_list l))
  | "fst", [ p ] -> fst (as_pair p)
  | "snd", [ p ] -> snd (as_pair p)
  | "not", [ b ] -> Vbase (V.Bool (not (as_bool b)))
  | "ignore", [ _ ] -> Vbase V.Unit
  | "print_int", [ _ ] | "print_string", [ _ ] -> Vbase V.Unit
  | "string_of_int", [ n ] -> Vbase (V.Str (string_of_int (as_int n)))
  | "float_of_int", [ n ] -> Vbase (V.Float (float_of_int (as_int n)))
  | "int_of_float", [ f ] -> Vbase (V.Int (int_of_float (as_float f)))
  | "abs", [ n ] -> Vbase (V.Int (abs (as_int n)))
  | "min", [ a; b ] -> if value_compare a b <= 0 then a else b
  | "max", [ a; b ] -> if value_compare a b >= 0 then a else b
  (* The skeletons, by their declarative definitions (paper §2). One
     application drops a stateful farm's final state: df_acc differs from
     df only across frames. *)
  | ("df" | "df_acc"), [ n; comp; acc; z; xs ] ->
      Skel.Skeletons.df (as_int n) (apply ctx comp) (apply2 ctx acc) z
        (as_list xs)
  | "df_ro", [ n; comp; acc; z; xs ] ->
      let comp (e, x) = apply ctx comp (Vtuple [ e; x ]) in
      Skel.Skeletons.df_ro (as_int n) comp (apply2 ctx acc) (as_pair z)
        (as_list xs)
  | "df_own", [ n; comp; acc; z; xs ] ->
      let states, seed = as_pair z in
      let n = as_int n and states = as_list states in
      (* worker [i mod n] owns element [i mod n] of the states *)
      if n <= 0 || List.length states < n then
        error
          "df_own: n = %d workers with %d partition states (needs n >= 1 and \
           a state per worker)"
          n (List.length states);
      snd
        (Skel.Skeletons.df_own n (stateful ctx comp) (apply2 ctx acc)
           (states, seed) (as_list xs))
  | "df_res", [ n; comp; acc; z; xs ] ->
      snd
        (Skel.Skeletons.df_res (as_int n) (stateful ctx comp) (apply2 ctx acc)
           (as_pair z) (as_list xs))
  | "scm", [ n; split; comp; merge; x ] ->
      let split n x = as_list (apply2 ctx split (Vbase (V.Int n)) x) in
      Skel.Skeletons.scm (as_int n) split (apply ctx comp)
        (fun ys -> apply ctx merge (Vlist ys)) x
  | "tf", [ n; work; acc; z; xs ] ->
      let work x =
        let subs, y = as_pair (apply ctx work x) in
        (as_list subs, y)
      in
      Skel.Skeletons.tf (as_int n) work (apply2 ctx acc) z (as_list xs)
  | "itermem", [ inp; loop; out; z; x ] ->
      let feed i =
        match inp with
        | Vbuiltin (name, 2, []) when Skel.Funtable.mem ctx.table name ->
            (* camera convention: external input functions of arity 2 also
               receive the frame index *)
            apply ctx (apply ctx inp x) (Vbase (V.Int i))
        | _ -> apply ctx inp x
      in
      let rec drive z i =
        if i >= ctx.frames then begin
          ctx.final_state <- Some (to_skel z);
          Vbase V.Unit
        end
        else begin
          let z', y = as_pair (apply ctx loop (Vtuple [ z; feed i ])) in
          let shown = apply ctx out y in
          ctx.collected <- to_skel shown :: ctx.collected;
          drive z' (i + 1)
        end
      in
      drive z 0
  | _ ->
      if Skel.Funtable.mem ctx.table name then apply_external ctx name args
      else error "unknown builtin %s" name

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)

and eval ctx env expr =
  match expr with
  | Ast.Const (c, _) -> (
      match c with
      | Ast.Cunit -> Vbase V.Unit
      | Ast.Cbool b -> Vbase (V.Bool b)
      | Ast.Cint n -> Vbase (V.Int n)
      | Ast.Cfloat f -> Vbase (V.Float f)
      | Ast.Cstring s -> Vbase (V.Str s))
  | Ast.Var (x, loc) -> (
      match Env.find_opt x env with
      | Some v -> v
      | None -> error "unbound variable %s at %s" x (Format.asprintf "%a" Ast.pp_loc loc))
  | Ast.Tuple (es, _) -> Vtuple (List.map (eval ctx env) es)
  | Ast.List (es, _) -> Vlist (List.map (eval ctx env) es)
  | Ast.App (f, a, _) ->
      let vf = eval ctx env f in
      let va = eval ctx env a in
      apply ctx vf va
  | Ast.Lambda (ps, body, _) -> Vclos { params = ps; body; cenv = ref env }
  | Ast.Let { recursive; pat; bound; body; _ } ->
      let env' = eval_binding ctx env ~recursive ~pat ~bound in
      eval ctx env' body
  | Ast.If (c, t, e, _) -> if as_bool (eval ctx env c) then eval ctx env t else eval ctx env e
  | Ast.Binop (op, a, b, _) -> eval_binop ctx env op a b
  | Ast.Uminus (e, _) -> (
      match eval ctx env e with
      | Vbase (V.Int n) -> Vbase (V.Int (-n))
      | Vbase (V.Float f) -> Vbase (V.Float (-.f))
      | v -> error "unary minus on %s" (Format.asprintf "%a" pp_value v))
  | Ast.Seq (a, b, _) ->
      let _ = eval ctx env a in
      eval ctx env b
  | Ast.Match (scrutinee, arms, loc) ->
      let v = eval ctx env scrutinee in
      let rec try_arms = function
        | [] ->
            error "match failure on %s at %s"
              (Format.asprintf "%a" pp_value v)
              (Format.asprintf "%a" Ast.pp_loc loc)
        | (pat, body) :: rest -> (
            match try_match env pat v with
            | Some env' -> eval ctx env' body
            | None -> try_arms rest)
      in
      try_arms arms

and eval_binop ctx env op a b =
  let va = eval ctx env a in
  let vb = eval ctx env b in
  match op with
  | "+" -> Vbase (V.Int (as_int va + as_int vb))
  | "-" -> Vbase (V.Int (as_int va - as_int vb))
  | "*" -> Vbase (V.Int (as_int va * as_int vb))
  | "/" ->
      let d = as_int vb in
      if d = 0 then error "division by zero" else Vbase (V.Int (as_int va / d))
  | "mod" ->
      let d = as_int vb in
      if d = 0 then error "division by zero" else Vbase (V.Int (as_int va mod d))
  | "+." -> Vbase (V.Float (as_float va +. as_float vb))
  | "-." -> Vbase (V.Float (as_float va -. as_float vb))
  | "*." -> Vbase (V.Float (as_float va *. as_float vb))
  | "/." -> Vbase (V.Float (as_float va /. as_float vb))
  | "^" -> Vbase (V.Str (as_string va ^ as_string vb))
  | "&&" -> Vbase (V.Bool (as_bool va && as_bool vb))
  | "||" -> Vbase (V.Bool (as_bool va || as_bool vb))
  | "=" -> Vbase (V.Bool (value_equal va vb))
  | "<>" -> Vbase (V.Bool (not (value_equal va vb)))
  | "<" -> Vbase (V.Bool (value_compare va vb < 0))
  | ">" -> Vbase (V.Bool (value_compare va vb > 0))
  | "<=" -> Vbase (V.Bool (value_compare va vb <= 0))
  | ">=" -> Vbase (V.Bool (value_compare va vb >= 0))
  | "::" -> Vlist (va :: as_list vb)
  | "@" -> Vlist (as_list va @ as_list vb)
  | _ -> error "unknown operator %s" op

and eval_binding ctx env ~recursive ~pat ~bound =
  if recursive then begin
    match (pat, bound) with
    | Ast.Pvar (x, _), Ast.Lambda (ps, body, _) ->
        let cenv = ref env in
        let clos = Vclos { params = ps; body; cenv } in
        cenv := Env.add x clos env;
        Env.add x clos env
    | _ -> error "let rec only supports function bindings"
  end
  else bind_pattern env pat (eval ctx env bound)

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)

(* A builtin takes as many arguments as its scheme has arrows. *)
let initial_env (_ : ctx) =
  let rec arity = function Types.Tcon ("->", [ _; r ]) -> 1 + arity r | _ -> 0 in
  List.fold_left
    (fun env (name, scheme) ->
      Env.add name (Vbuiltin (name, arity scheme.Types.body, [])) env)
    Env.empty Infer.builtins

let eval_expr ctx env expr = eval ctx env expr

let eval_program_env ctx start prog =
  List.fold_left
    (fun env top ->
      match top with
      | Ast.Texternal { name; _ } ->
          let entry =
            match Skel.Funtable.find_opt ctx.table name with
            | Some entry -> entry
            | None ->
                error "external %s is not registered in the function table" name
          in
          (* Arity-0 externals are constants (e.g. [empty_list]): evaluate
             them once at binding time. *)
          if entry.Skel.Funtable.arity = 0 then
            Env.add name (of_skel (entry.Skel.Funtable.apply V.Unit)) env
          else Env.add name (Vbuiltin (name, entry.Skel.Funtable.arity, [])) env
      | Ast.Tlet { recursive; pat; expr; _ } ->
          eval_binding ctx env ~recursive ~pat ~bound:expr)
    start prog

let lookup env name = Env.find_opt name env
