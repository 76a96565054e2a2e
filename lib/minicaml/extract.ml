module V = Skel.Value

exception Extract_error of string * Ast.loc

type extraction = { program : Skel.Ir.program; input : V.t option }

let error loc fmt = Printf.ksprintf (fun m -> raise (Extract_error (m, loc))) fmt

(* Flatten an application spine: [f a b c] -> (f, [a; b; c]). *)
let rec spine = function
  | Ast.App (f, a, _) ->
      let head, args = spine f in
      (head, args @ [ a ])
  | e -> (e, [])

(* What a stage argument is, relative to the current dataflow value. *)
type arg_spec =
  | Whole  (** the dataflow value itself *)
  | Proj of int  (** component [i] of the dataflow tuple *)
  | Const of V.t

(* The shape of the value currently travelling on the wire. *)
type dataflow =
  | Single of string
  | Components of string list  (** names of the tuple components, in order *)

let external_entry table loc name =
  match Skel.Funtable.find_opt table name with
  | Some e -> e
  | None -> error loc "external function %s is not registered" name

(* Evaluate a closed expression to a ground constant using the sequential
   evaluator over the global environment. *)
let const_value ctx genv loc e =
  match Eval.eval_expr ctx genv e with
  | v -> (
      match Eval.to_skel v with
      | v -> v
      | exception Eval.Runtime_error msg -> error loc "argument is not a constant: %s" msg)
  | exception Eval.Runtime_error msg ->
      error loc "cannot evaluate argument at compile time: %s" msg

let classify ctx genv dataflow arg =
  let loc = Ast.expr_loc arg in
  match (arg, dataflow) with
  | Ast.Var (x, _), Single d when x = d -> Whole
  | Ast.Var (x, _), Components names when List.mem x names ->
      let rec index i = function
        | y :: _ when y = x -> i
        | _ :: rest -> index (i + 1) rest
        | [] -> assert false
      in
      Proj (index 0 names)
  (* A tuple that reconstructs the dataflow components in order, e.g.
     [scm n s c m (lane, im)] where the loop parameter is [(lane, im)], is
     the dataflow value itself. *)
  | Ast.Tuple (es, _), Components names
    when List.length es = List.length names
         && List.for_all2
              (fun e n -> match e with Ast.Var (x, _) -> x = n | _ -> false)
              es names ->
      Whole
  | _ -> Const (const_value ctx genv loc arg)

(* Register a unary wrapper applying [fn_name] to arguments assembled from
   the incoming dataflow value per [specs]. This is the glue code SKiPPER
   generates around user C functions; the closure itself is built by
   Funtable.derive from the pure-data recipe, so a cached compile can
   replay the registration. *)
let register_wrapper table minted fn_name specs =
  let specs =
    List.map
      (function
        | Whole -> Skel.Funtable.Whole
        | Proj i -> Skel.Funtable.Proj i
        | Const c -> Skel.Funtable.Const c)
      specs
  in
  let wrapper = Skel.Funtable.fresh_name table minted (fn_name ^ "__s") in
  Skel.Funtable.derive table wrapper
    (Skel.Funtable.Wrapper { base = fn_name; specs });
  wrapper

let expect_external_var table _loc what = function
  | Ast.Var (x, vloc) ->
      let _ = external_entry table vloc x in
      x
  | e -> error (Ast.expr_loc e) "%s must be an external function name, got %a" what
           (fun () e -> Format.asprintf "%a" Ast.pp_expr e) e

let expect_int loc = function
  | V.Int n -> n
  | v -> error loc "expected an integer constant, got %s" (V.to_string v)

(* Translate one stage application. Returns the IR stage. The dataflow value
   enters the stage whole; [dataflow] describes its shape. *)
(* The df surface family: each name is the same farm with a different
   declared state-access mode (and thus a different init shape, checked by
   Ir.validate). *)
let df_family =
  [
    ("df", Skel.Ir.Stateless);
    ("df_ro", Skel.Ir.Read_only);
    ("df_own", Skel.Ir.Owner);
    ("df_acc", Skel.Ir.Accumulator);
    ("df_res", Skel.Ir.Resource);
  ]

let translate_stage table minted ctx genv dataflow rhs =
  let loc = Ast.expr_loc rhs in
  match spine rhs with
  | Ast.Var (df, _), [ n; comp; acc; z; xs ]
    when List.mem_assoc df df_family ->
      (match classify ctx genv dataflow xs with
      | Whole -> ()
      | _ -> error loc "%s must be applied to the current dataflow list" df);
      let nworkers = expect_int loc (const_value ctx genv loc n) in
      Skel.Ir.Df
        {
          nworkers;
          comp = expect_external_var table loc (df ^ " compute function") comp;
          acc = expect_external_var table loc (df ^ " accumulation function") acc;
          init = const_value ctx genv loc z;
          state = List.assoc df df_family;
        }
  | Ast.Var ("tf", _), [ n; work; acc; z; xs ] ->
      (match classify ctx genv dataflow xs with
      | Whole -> ()
      | _ -> error loc "tf must be applied to the current dataflow list");
      let nworkers = expect_int loc (const_value ctx genv loc n) in
      Skel.Ir.Tf
        {
          nworkers;
          work = expect_external_var table loc "tf work function" work;
          acc = expect_external_var table loc "tf accumulation function" acc;
          init = const_value ctx genv loc z;
        }
  | Ast.Var ("scm", _), [ n; split; comp; merge; x ] ->
      (match classify ctx genv dataflow x with
      | Whole -> ()
      | _ -> error loc "scm must be applied to the current dataflow value");
      let nparts = expect_int loc (const_value ctx genv loc n) in
      Skel.Ir.Scm
        {
          nparts;
          split = expect_external_var table loc "scm split function" split;
          compute = expect_external_var table loc "scm compute function" comp;
          merge = expect_external_var table loc "scm merge function" merge;
        }
  | Ast.Var (skel, _), _
    when List.mem skel [ "tf"; "scm"; "itermem" ]
         || List.mem_assoc skel df_family ->
      error loc "%s used with the wrong number of arguments" skel
  | Ast.Var (f, floc), args ->
      let entry = external_entry table floc f in
      if List.length args <> entry.Skel.Funtable.arity then
        error loc "%s expects %d argument(s), got %d" f entry.Skel.Funtable.arity
          (List.length args);
      let specs = List.map (classify ctx genv dataflow) args in
      let uses_flow =
        List.exists (function Whole | Proj _ -> true | Const _ -> false) specs
      in
      if not uses_flow then
        error loc "stage %s does not consume the dataflow value" f;
      (* Identity wrappers are skipped when the call is exactly [f flow]. *)
      if specs = [ Whole ] then Skel.Ir.Seq f
      else Skel.Ir.Seq (register_wrapper table minted f specs)
  | head, _ ->
      error (Ast.expr_loc head) "unsupported stage expression %s"
        (Format.asprintf "%a" Ast.pp_expr head)

(* Translate a function body: a linear let-chain of stages. *)
let translate_chain table minted ctx genv dataflow body =
  let rec go dataflow acc expr =
    match expr with
    | Ast.Let { recursive = false; pat = Ast.Pvar (v, _); bound; body; _ } ->
        let stage = translate_stage table minted ctx genv dataflow bound in
        go (Single v) (stage :: acc) body
    | Ast.Let { recursive = true; loc; _ } ->
        error loc "recursive bindings are not allowed in a skeletal pipeline"
    | Ast.Let { pat; loc; _ } ->
        error loc "pipeline bindings must bind a simple name, got %s"
          (Format.asprintf "%a" Ast.pp_pattern pat)
    | Ast.Var (x, loc) -> (
        (* Final expression is just a variable: must be the dataflow. *)
        match dataflow with
        | Single d when d = x -> List.rev acc
        | _ -> error loc "pipeline result %s is not the dataflow value" x)
    | rhs ->
        let stage = translate_stage table minted ctx genv dataflow rhs in
        List.rev (stage :: acc)
  in
  match go dataflow [] body with [ s ] -> s | stages -> Skel.Ir.Pipe stages

(* Find the syntactic definition of a (possibly named) function. *)
let resolve_function tops loc = function
  | Ast.Lambda (ps, body, _) -> (ps, body)
  | Ast.Var (name, vloc) -> (
      let def =
        List.find_map
          (function
            | Ast.Tlet { pat = Ast.Pvar (x, _); expr; _ } when x = name -> Some expr
            | _ -> None)
          tops
      in
      match def with
      | Some (Ast.Lambda (ps, body, _)) -> (ps, body)
      | Some _ -> error vloc "%s is not a function definition" name
      | None -> error vloc "unknown loop function %s" name)
  | e -> error loc "expected a function, got %s" (Format.asprintf "%a" Ast.pp_expr e)

let dataflow_of_params loc = function
  | [ Ast.Pvar (x, _) ] -> Single x
  | [ Ast.Ptuple (ps, _) ] ->
      Components
        (List.map
           (function
             | Ast.Pvar (x, _) -> x
             | p -> error (Ast.pattern_loc p) "loop pattern components must be names")
           ps)
  | _ -> error loc "pipeline functions must take a single (possibly tuple) parameter"

let extract ?(frames = 1) table prog =
  let minted = ref 0 in
  let ctx = Eval.make_ctx ~frames:0 table in
  (* Global environment: all top-level bindings except [main] (whose
     evaluation would run the stream loop). *)
  let globals =
    List.filter
      (function
        | Ast.Tlet { pat = Ast.Pvar ("main", _); _ } -> false
        | _ -> true)
      prog
  in
  let genv =
    try Eval.eval_program ctx globals
    with Eval.Runtime_error msg ->
      raise (Extract_error ("evaluating globals: " ^ msg, Ast.noloc))
  in
  let main_expr, main_loc =
    match
      List.find_map
        (function
          | Ast.Tlet { pat = Ast.Pvar ("main", _); expr; loc; _ } -> Some (expr, loc)
          | _ -> None)
        prog
    with
    | Some x -> x
    | None -> raise (Extract_error ("program has no 'main' binding", Ast.noloc))
  in
  match spine main_expr with
  | Ast.Var ("itermem", _), [ inp; loop; out; z; x ] ->
      let input_fn = expect_external_var table main_loc "itermem input function" inp in
      let output_fn = expect_external_var table main_loc "itermem output function" out in
      let init = const_value ctx genv main_loc z in
      let input = const_value ctx genv main_loc x in
      let params, body = resolve_function prog main_loc loop in
      let dataflow = dataflow_of_params main_loc params in
      let loop_stage = translate_chain table minted ctx genv dataflow body in
      {
        program =
          Skel.Ir.program ~frames "main"
            (Skel.Ir.Itermem { input = input_fn; loop = loop_stage; output = output_fn; init });
        input = Some input;
      }
  | Ast.Lambda _, [] ->
      let params, body = resolve_function prog main_loc main_expr in
      let dataflow = dataflow_of_params main_loc params in
      { program = Skel.Ir.program ~frames "main" (translate_chain table minted ctx genv dataflow body);
        input = None }
  | _ ->
      (* main = <stage chain> applied to ... : treat as a one-stage pipeline
         whose input is the (constant) last argument when recognisable. *)
      let head, args = spine main_expr in
      (match (head, List.rev args) with
      | Ast.Var (f, _), last :: _
        when List.mem_assoc f df_family || f = "tf" || f = "scm" ->
          let input = const_value ctx genv main_loc last in
          let dataflow = Single "__input" in
          let rewritten =
            (* Rebuild the application with the last argument replaced by the
               dataflow variable. *)
            let rec rebuild e =
              match e with
              | Ast.App (f', a, l) when a == last -> Ast.App (rebuild f', Ast.Var ("__input", l), l)
              | Ast.App (f', a, l) -> Ast.App (rebuild f', a, l)
              | e -> e
            in
            rebuild main_expr
          in
          let stage = translate_stage table minted ctx genv dataflow rewritten in
          { program = Skel.Ir.program ~frames "main" stage; input = Some input }
      | _ ->
          error main_loc
            "main must be an itermem application, a function, or a skeleton \
             application")
