exception Type_error of string * Ast.loc

module Env = Map.Make (String)

type env = Types.scheme Env.t

let error loc fmt = Printf.ksprintf (fun m -> raise (Type_error (m, loc))) fmt

(* The published skeleton signatures. Schemes are built from parsed type
   expressions so the source of truth stays readable. *)
let scheme_of_string s = Types.of_type_expr (Parser.type_expression s)

let builtin_schemes =
  [
    ("df", "int -> ('a -> 'b) -> ('c -> 'b -> 'c) -> 'c -> 'a list -> 'c");
    (* The stateful farm family: same farm, different state-access modes.
       The init argument carries the state alongside the fold seed (a pair,
       or a per-worker state list for the owner mode). *)
    ("df_acc", "int -> ('a -> 'b) -> ('c -> 'b -> 'c) -> 'c -> 'a list -> 'c");
    ("df_ro", "int -> ('e * 'a -> 'b) -> ('c -> 'b -> 'c) -> 'e * 'c -> 'a list -> 'c");
    ("df_own",
     "int -> ('s * 'a -> 's * 'b) -> ('c -> 'b -> 'c) -> 's list * 'c -> 'a list -> 'c");
    ("df_res",
     "int -> ('s * 'a -> 's * 'b) -> ('c -> 'b -> 'c) -> 's * 'c -> 'a list -> 'c");
    ("scm", "int -> (int -> 'a -> 'b list) -> ('b -> 'c) -> ('c list -> 'd) -> 'a -> 'd");
    ("tf", "int -> ('a -> 'a list * 'b) -> ('c -> 'b -> 'c) -> 'c -> 'a list -> 'c");
    ("itermem", "('a -> 'b) -> ('c * 'b -> 'c * 'd) -> ('d -> unit) -> 'c -> 'a -> unit");
    ("map", "('a -> 'b) -> 'a list -> 'b list");
    ("fold_left", "('a -> 'b -> 'a) -> 'a -> 'b list -> 'a");
    ("length", "'a list -> int");
    ("rev", "'a list -> 'a list");
    ("fst", "'a * 'b -> 'a");
    ("snd", "'a * 'b -> 'b");
    ("not", "bool -> bool");
    ("ignore", "'a -> unit");
    ("print_int", "int -> unit");
    ("print_string", "string -> unit");
    ("string_of_int", "int -> string");
    ("float_of_int", "int -> float");
    ("int_of_float", "float -> int");
    ("abs", "int -> int");
    ("min", "'a -> 'a -> 'a");
    ("max", "'a -> 'a -> 'a");
  ]

let initial_env =
  List.fold_left
    (fun env (name, sig_) -> Env.add name (scheme_of_string sig_) env)
    Env.empty builtin_schemes

let lookup env name = Env.find_opt name env

let binop_type op =
  let open Types in
  match op with
  | "+" | "-" | "*" | "/" | "mod" -> Some (int_t, int_t, int_t)
  | "+." | "-." | "*." | "/." -> Some (float_t, float_t, float_t)
  | "^" -> Some (string_t, string_t, string_t)
  | "&&" | "||" -> Some (bool_t, bool_t, bool_t)
  | _ -> None

let rec bind_pattern env level pat ty =
  match pat with
  | Ast.Pvar (x, _) -> Env.add x (Types.mono ty) env
  | Ast.Pwild _ -> env
  | Ast.Punit loc -> (
      match Types.unify ty Types.unit_t with
      | () -> env
      | exception Types.Unify_error (a, b) ->
          error loc "pattern () does not match %s (conflict %s vs %s)"
            (Types.to_string ty) (Types.to_string a) (Types.to_string b))
  | Ast.Ptuple (ps, loc) -> (
      let tys = List.map (fun _ -> Types.new_var level) ps in
      match Types.unify ty (Types.tuple tys) with
      | () -> List.fold_left2 (fun env p t -> bind_pattern env level p t) env ps tys
      | exception Types.Unify_error _ ->
          error loc "tuple pattern does not match type %s" (Types.to_string ty))
  | Ast.Pconst (c, loc) -> (
      let tc =
        match c with
        | Ast.Cunit -> Types.unit_t
        | Ast.Cbool _ -> Types.bool_t
        | Ast.Cint _ -> Types.int_t
        | Ast.Cfloat _ -> Types.float_t
        | Ast.Cstring _ -> Types.string_t
      in
      match Types.unify ty tc with
      | () -> env
      | exception Types.Unify_error _ ->
          error loc "literal pattern does not match type %s" (Types.to_string ty))
  | Ast.Pnil loc -> (
      match Types.unify ty (Types.list_t (Types.new_var level)) with
      | () -> env
      | exception Types.Unify_error _ ->
          error loc "[] pattern does not match type %s" (Types.to_string ty))
  | Ast.Pcons (ph, pt, loc) -> (
      let elt = Types.new_var level in
      match Types.unify ty (Types.list_t elt) with
      | () ->
          let env = bind_pattern env level ph elt in
          bind_pattern env level pt ty
      | exception Types.Unify_error _ ->
          error loc "cons pattern does not match type %s" (Types.to_string ty))

let rec infer env level expr =
  match expr with
  | Ast.Const (c, _) -> (
      match c with
      | Ast.Cunit -> Types.unit_t
      | Ast.Cbool _ -> Types.bool_t
      | Ast.Cint _ -> Types.int_t
      | Ast.Cfloat _ -> Types.float_t
      | Ast.Cstring _ -> Types.string_t)
  | Ast.Var (x, loc) -> (
      match Env.find_opt x env with
      | Some scheme -> Types.instantiate level scheme
      | None -> error loc "unbound variable %s" x)
  | Ast.Tuple (es, _) -> Types.tuple (List.map (infer env level) es)
  | Ast.List (es, _) ->
      let elt = Types.new_var level in
      List.iter
        (fun e ->
          let t = infer env level e in
          unify_at (Ast.expr_loc e) t elt ~ctx:(fun () ->
              "list elements must share a type"))
        es;
      Types.list_t elt
  | Ast.App (f, a, loc) ->
      let tf = infer env level f in
      let ta = infer env level a in
      let tr = Types.new_var level in
      unify_at loc tf (Types.arrow ta tr) ~ctx:(fun () -> "function application");
      tr
  | Ast.Lambda (ps, body, _) ->
      let param_tys = List.map (fun _ -> Types.new_var level) ps in
      let env' =
        List.fold_left2 (fun env p t -> bind_pattern env level p t) env ps param_tys
      in
      Types.arrows param_tys (infer env' level body)
  | Ast.Let { recursive; pat; bound; body; loc } ->
      let env' = infer_binding env level ~recursive ~pat ~bound ~loc in
      infer env' level body
  | Ast.If (c, t, e, loc) ->
      unify_at (Ast.expr_loc c) (infer env level c) Types.bool_t ~ctx:(fun () ->
          "if condition");
      let tt = infer env level t in
      let te = infer env level e in
      unify_at loc tt te ~ctx:(fun () -> "if branches");
      tt
  | Ast.Binop (op, a, b, loc) -> (
      let ta = infer env level a and tb = infer env level b in
      match op with
      | "::" ->
          unify_at loc tb (Types.list_t ta) ~ctx:(fun () -> "cons");
          tb
      | "@" ->
          let elt = Types.new_var level in
          unify_at loc ta (Types.list_t elt) ~ctx:(fun () -> "append");
          unify_at loc tb (Types.list_t elt) ~ctx:(fun () -> "append");
          ta
      | "=" | "<>" | "<" | ">" | "<=" | ">=" ->
          unify_at loc ta tb ~ctx:(fun () -> "comparison operands");
          Types.bool_t
      | _ -> (
          match binop_type op with
          | Some (ta', tb', tr) ->
              unify_at (Ast.expr_loc a) ta ta' ~ctx:(fun () -> "operator " ^ op);
              unify_at (Ast.expr_loc b) tb tb' ~ctx:(fun () -> "operator " ^ op);
              tr
          | None -> error loc "unknown operator %s" op))
  | Ast.Uminus (e, loc) ->
      unify_at loc (infer env level e) Types.int_t ~ctx:(fun () -> "unary minus");
      Types.int_t
  | Ast.Seq (a, b, _) ->
      unify_at (Ast.expr_loc a) (infer env level a) Types.unit_t ~ctx:(fun () ->
          "sequenced expression must have type unit");
      infer env level b
  | Ast.Match (scrutinee, arms, loc) ->
      if arms = [] then error loc "match expression with no arms";
      let tscrut = infer env level scrutinee in
      let tres = Types.new_var level in
      List.iter
        (fun (pat, body) ->
          let env' = bind_pattern env level pat tscrut in
          unify_at (Ast.expr_loc body) (infer env' level body) tres ~ctx:(fun () ->
              "match arms must share a type"))
        arms;
      tres

and unify_at loc t1 t2 ~ctx =
  match Types.unify t1 t2 with
  | () -> ()
  | exception Types.Unify_error (a, b) ->
      error loc "%s: cannot unify %s with %s" (ctx ()) (Types.to_string a)
        (Types.to_string b)

and infer_binding env level ~recursive ~pat ~bound ~loc =
  if recursive then begin
    match pat with
    | Ast.Pvar (x, _) ->
        let tv = Types.new_var (level + 1) in
        let env_rec = Env.add x (Types.mono tv) env in
        let tb = infer env_rec (level + 1) bound in
        unify_at loc tb tv ~ctx:(fun () -> "recursive binding " ^ x);
        Env.add x (Types.generalize level tb) env
    | _ -> error loc "only simple names can be bound with let rec"
  end
  else begin
    let tb = infer env (level + 1) bound in
    match pat with
    | Ast.Pvar (x, _) -> Env.add x (Types.generalize level tb) env
    | _ ->
        (* Destructuring bindings stay monomorphic. *)
        bind_pattern env level pat tb
  end

let infer_expr env expr = infer env 0 expr

let infer_program env prog =
  let bound = ref [] in
  let env =
    List.fold_left
      (fun env top ->
        match top with
        | Ast.Texternal { name; ty; loc } -> (
            match Types.of_type_expr ty with
            | scheme ->
                bound := (name, scheme) :: !bound;
                Env.add name scheme env
            | exception Failure msg -> error loc "%s" msg)
        | Ast.Tlet { recursive; pat; expr; loc } ->
            let env' = infer_binding env 0 ~recursive ~pat ~bound:expr ~loc in
            List.iter
              (fun x ->
                match Env.find_opt x env' with
                | Some scheme -> bound := (x, scheme) :: !bound
                | None -> ())
              (Ast.pattern_vars pat);
            env')
      env prog
  in
  (env, List.rev !bound)
