(* Tests for the ML front-end: lexer, parser, type inference, evaluator and
   skeleton extraction. *)

module L = Minicaml.Lexer
module P = Minicaml.Parser
module A = Minicaml.Ast
module T = Minicaml.Types
module I = Minicaml.Infer
module E = Minicaml.Eval
module X = Minicaml.Extract
module V = Skel.Value

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

let toks src = List.map (fun l -> l.L.tok) (L.tokenize src)

let test_lex_basic () =
  Alcotest.(check bool) "let binding" true
    (toks "let x = 1" = [ L.LET; L.IDENT "x"; L.EQUAL; L.INT 1; L.EOF ])

let test_lex_operators () =
  Alcotest.(check bool) "float ops" true
    (toks "+. *. :: -> <= <>" =
       [ L.OP "+."; L.OP "*."; L.OP "::"; L.ARROW; L.OP "<="; L.OP "<>"; L.EOF ])

let test_lex_numbers () =
  Alcotest.(check bool) "ints and floats" true
    (toks "42 3.5 1e3" = [ L.INT 42; L.FLOAT 3.5; L.INT 1; L.IDENT "e3"; L.EOF ]
    || toks "42 3.5" = [ L.INT 42; L.FLOAT 3.5; L.EOF ])

let test_lex_comments_nest () =
  Alcotest.(check bool) "nested comments" true
    (toks "1 (* a (* b *) c *) 2" = [ L.INT 1; L.INT 2; L.EOF ])

let test_lex_string_escapes () =
  Alcotest.(check bool) "escapes" true (toks {|"a\nb"|} = [ L.STRING "a\nb"; L.EOF ])

let test_lex_tyvar () =
  Alcotest.(check bool) "tyvar" true (toks "'a" = [ L.TYVAR "a"; L.EOF ])

let test_lex_errors () =
  let fails s = try ignore (L.tokenize s); false with L.Lex_error _ -> true in
  Alcotest.(check bool) "unterminated string" true (fails "\"abc");
  Alcotest.(check bool) "unterminated comment" true (fails "(* abc");
  Alcotest.(check bool) "bad char" true (fails "let x = #")

let test_lex_locations () =
  let located = L.tokenize "let\n  x = 1" in
  let x = List.nth located 1 in
  Alcotest.(check int) "line" 2 x.L.line;
  Alcotest.(check int) "col" 3 x.L.col

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

let parse_expr_str s = Format.asprintf "%a" A.pp_expr (P.expression s)

let test_parse_precedence () =
  Alcotest.(check string) "mul binds tighter" "(1 + (2 * 3))" (parse_expr_str "1 + 2 * 3");
  Alcotest.(check string) "mod binds like mul" "(1 + (n mod 3))" (parse_expr_str "1 + n mod 3");
  Alcotest.(check string) "app binds tightest" "((f 1) + 2)" (parse_expr_str "f 1 + 2");
  Alcotest.(check string) "comparison" "((1 + 2) < (3 * 4))" (parse_expr_str "1 + 2 < 3 * 4");
  Alcotest.(check string) "and/or" "(a || (b && c))" (parse_expr_str "a || b && c")

let test_parse_cons_right_assoc () =
  Alcotest.(check string) "cons" "(1 :: (2 :: xs))" (parse_expr_str "1 :: 2 :: xs")

let test_parse_application_left_assoc () =
  Alcotest.(check string) "app" "(((f a) b) c)" (parse_expr_str "f a b c")

let test_parse_tuples_and_lists () =
  Alcotest.(check string) "tuple" "(1, 2, 3)" (parse_expr_str "1, 2, 3");
  Alcotest.(check string) "list" "[1; 2]" (parse_expr_str "[1; 2]");
  Alcotest.(check string) "empty list" "[]" (parse_expr_str "[]");
  Alcotest.(check string) "unit" "()" (parse_expr_str "()")

let test_parse_let_fun_sugar () =
  let prog = P.program "let add x y = x + y" in
  match prog with
  | [ A.Tlet { pat = A.Pvar ("add", _); expr = A.Lambda ([ _; _ ], _, _); _ } ] -> ()
  | _ -> Alcotest.fail "expected function sugar to produce a 2-parameter lambda"

let test_parse_let_rec () =
  match P.program "let rec f n = if n = 0 then 1 else n * f (n - 1)" with
  | [ A.Tlet { recursive = true; _ } ] -> ()
  | _ -> Alcotest.fail "expected recursive binding"

let test_parse_external () =
  match P.program "external f : int -> bool list" with
  | [ A.Texternal { name = "f"; ty = A.Tarrow_expr (_, A.Tname ("list", [ _ ], _), _); _ } ]
    -> ()
  | _ -> Alcotest.fail "expected external with arrow type"

let test_parse_tuple_pattern () =
  match P.program "let f (a, b) = a" with
  | [ A.Tlet { expr = A.Lambda ([ A.Ptuple ([ _; _ ], _) ], _, _); _ } ] -> ()
  | _ -> Alcotest.fail "expected tuple pattern parameter"

let test_parse_sequence () =
  Alcotest.(check string) "seq" "((f x); (g y))" (parse_expr_str "f x; g y")

let test_parse_if_fun () =
  Alcotest.(check string) "if" "(if a then 1 else 2)" (parse_expr_str "if a then 1 else 2");
  Alcotest.(check string) "fun" "(fun x -> (x + 1))" (parse_expr_str "fun x -> x + 1")

let test_parse_errors () =
  let fails s = try ignore (P.program s); false with P.Parse_error _ -> true in
  Alcotest.(check bool) "missing in" true (fails "let main = let x = 1 x");
  Alcotest.(check bool) "missing rparen" true (fails "let main = (1 + 2");
  Alcotest.(check bool) "bad top" true (fails "42");
  Alcotest.(check bool) "missing then" true (fails "let main = if a 1 else 2")

let test_parse_type_expression () =
  let t = P.type_expression "('a -> 'b) -> 'a list -> 'b list" in
  match t with
  | A.Tarrow_expr (A.Tarrow_expr _, A.Tarrow_expr (A.Tname ("list", _, _), _, _), _) -> ()
  | _ -> Alcotest.fail "unexpected type shape"

(* ------------------------------------------------------------------ *)
(* Types and inference                                                 *)

let infer_str src name =
  let _, schemes = I.infer_program I.initial_env (P.program src) in
  match List.assoc_opt name schemes with
  | Some s -> T.scheme_to_string s
  | None -> Alcotest.failf "no binding %s" name

let test_infer_constants () =
  Alcotest.(check string) "int" "int" (infer_str "let x = 1 + 2" "x");
  Alcotest.(check string) "float" "float" (infer_str "let x = 1.0 +. 2.0" "x");
  Alcotest.(check string) "bool" "bool" (infer_str "let x = 1 < 2" "x");
  Alcotest.(check string) "string" "string" (infer_str {|let x = "a" ^ "b"|} "x")

let test_infer_polymorphic_id () =
  Alcotest.(check string) "id" "'a -> 'a" (infer_str "let id = fun x -> x" "id")

let test_infer_let_polymorphism () =
  Alcotest.(check string) "id reused at two types" "int"
    (infer_str "let id = fun x -> x\nlet a = id 1\nlet b = id true\nlet c = a" "c")

let test_infer_recursion () =
  Alcotest.(check string) "factorial" "int -> int"
    (infer_str "let rec f n = if n = 0 then 1 else n * f (n - 1)" "f")

let test_infer_skeleton_signatures () =
  (* The paper's published signatures, recovered from the initial env. *)
  let check name expected =
    match I.lookup I.initial_env name with
    | Some s -> Alcotest.(check string) name expected (T.scheme_to_string s)
    | None -> Alcotest.failf "missing %s" name
  in
  check "df" "int -> ('a -> 'b) -> ('c -> 'b -> 'c) -> 'c -> 'a list -> 'c";
  check "itermem" "('a -> 'b) -> ('c * 'b -> 'c * 'd) -> ('d -> unit) -> 'c -> 'a -> unit"

let test_infer_df_application () =
  Alcotest.(check string) "df instantiated" "int"
    (infer_str
       "let x = df 4 (fun n -> n * n) (fun a b -> a + b) 0 [1; 2; 3]" "x")

let test_infer_tracking_program () =
  let src = Tracking.Funcs.source Tracking.Funcs.default_config in
  Alcotest.(check string) "loop type" "state * img -> state * markList"
    (infer_str src "loop");
  Alcotest.(check string) "main type" "unit" (infer_str src "main")

let test_infer_errors () =
  let fails src = try ignore (infer_str src "x") ; false with I.Type_error _ -> true in
  Alcotest.(check bool) "int + bool" true (fails "let x = 1 + true");
  Alcotest.(check bool) "mod on floats" true (fails "let x = 1.0 mod 2.0");
  Alcotest.(check bool) "unbound" true (fails "let x = nope + 1");
  Alcotest.(check bool) "occurs check" true (fails "let x = fun f -> f f");
  Alcotest.(check bool) "branch mismatch" true (fails "let x = if true then 1 else false");
  Alcotest.(check bool) "condition not bool" true (fails "let x = if 1 then 2 else 3");
  Alcotest.(check bool) "heterogeneous list" true (fails "let x = [1; true]")

let test_infer_external_opaque_types () =
  Alcotest.(check string) "opaque flows through" "img -> mark"
    (infer_str "external f : img -> mark\nlet x = f" "x")

(* ------------------------------------------------------------------ *)
(* Evaluator                                                           *)

let eval_str ?(table = Skel.Funtable.create ()) src name =
  let ctx = E.make_ctx table in
  let env = E.eval_program_env ctx (E.initial_env ctx) (P.program src) in
  match E.lookup env name with
  | Some v -> v
  | None -> Alcotest.failf "no binding %s" name

let check_int src name expected =
  match E.to_skel (eval_str src name) with
  | V.Int n -> Alcotest.(check int) name expected n
  | v -> Alcotest.failf "expected int, got %s" (V.to_string v)

let test_eval_arith () =
  check_int "let x = 1 + 2 * 3" "x" 7;
  check_int "let x = 10 / 3" "x" 3;
  check_int "let x = 17 mod 5" "x" 2;
  check_int "let x = if 2 < 3 then 1 else 0" "x" 1

let test_eval_closures () =
  check_int "let add = fun a b -> a + b\nlet inc = add 1\nlet x = inc 41" "x" 42

let test_eval_recursion () =
  check_int "let rec fact n = if n = 0 then 1 else n * fact (n - 1)\nlet x = fact 6" "x"
    720

let test_eval_lists () =
  check_int "let x = length (1 :: [2; 3] @ [4])" "x" 4;
  check_int "let x = fold_left (fun a b -> a + b) 0 (map (fun n -> n * n) [1; 2; 3])" "x" 14

let test_eval_tuples () =
  check_int "let p = (1, 2)\nlet x = fst p + snd p" "x" 3

let test_eval_division_by_zero () =
  Alcotest.(check bool) "raises" true
    (try ignore (eval_str "let x = 1 / 0" "x"); false with E.Runtime_error _ -> true)

let test_eval_skeletons_declaratively () =
  check_int "let x = df 4 (fun n -> n * n) (fun a b -> a + b) 0 [1; 2; 3; 4]" "x" 30;
  (* 4 -> (3, 2); 3 -> (2, 1); leaves 2, 1, 2 sum to 5 *)
  check_int
    "let x = tf 2 (fun n -> if n > 2 then ([n - 1; n - 2], 0) else ([], n)) (fun a b -> a + b) 0 [4]"
    "x" 5

let test_eval_external_cycles_charged () =
  let table = Skel.Funtable.create () in
  Skel.Funtable.register table "work" ~cost:(fun _ -> 123.0) (fun v -> v);
  let ctx = E.make_ctx table in
  let env = E.eval_program_env ctx (E.initial_env ctx) (P.program "external work : int -> int\nlet x = work 1") in
  ignore (E.lookup env "x");
  Alcotest.(check (float 0.001)) "cycles" 123.0 ctx.E.cycles

let test_eval_comparison_of_functions_fails () =
  Alcotest.(check bool) "function compare raises" true
    (try
       ignore (eval_str "let x = (fun a -> a) = (fun b -> b)" "x");
       false
     with E.Runtime_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)

let test_extract_tracking_shape () =
  let config = Tracking.Funcs.default_config in
  let table = Tracking.Funcs.table config in
  let ex = X.extract ~frames:2 table (P.program (Tracking.Funcs.source config)) in
  (match ex.X.program.Skel.Ir.body with
  | Skel.Ir.Itermem { input = "read_img"; output = "display_marks"; loop; _ } -> (
      match loop with
      | Skel.Ir.Pipe [ Skel.Ir.Seq _; Skel.Ir.Df { nworkers = 8; comp = "detect_mark"; acc = "accum_marks"; _ }; Skel.Ir.Seq _ ] ->
          ()
      | other ->
          Alcotest.failf "unexpected loop shape %s"
            (Format.asprintf "%a" Skel.Ir.pp other))
  | _ -> Alcotest.fail "expected itermem at top level");
  match ex.X.input with
  | Some (V.Tuple [ V.Int 512; V.Int 512 ]) -> ()
  | _ -> Alcotest.fail "expected the (512, 512) input"

let test_extract_scm_lambda_main () =
  let table = Skel.Funtable.create () in
  Apps.Ccl_scm.register table;
  let ex = X.extract table (P.program (Apps.Ccl_scm.source ~nparts:4)) in
  match ex.X.program.Skel.Ir.body with
  | Skel.Ir.Scm { nparts = 4; split = "ccl_split"; compute = "ccl_band"; merge = "ccl_merge" }
    ->
      Alcotest.(check bool) "no fixed input" true (ex.X.input = None)
  | other -> Alcotest.failf "unexpected body %s" (Format.asprintf "%a" Skel.Ir.pp other)

let test_extract_wrapper_registration () =
  (* A stage with constant extra arguments gets a registered wrapper. *)
  let table = Skel.Funtable.create () in
  Skel.Funtable.register table "scale" ~arity:2 (fun v ->
      let k, x = V.to_pair v in
      V.Int (V.to_int k * V.to_int x));
  let src = "external scale : int -> int -> int\nlet k = 3\nlet main = fun x -> let y = scale k x in y" in
  let ex = X.extract table (P.program src) in
  match ex.X.program.Skel.Ir.body with
  | Skel.Ir.Seq wrapper ->
      Alcotest.(check bool) "wrapper registered" true (Skel.Funtable.mem table wrapper);
      Alcotest.(check bool) "wrapper works" true
        (V.equal (Skel.Funtable.apply table wrapper (V.Int 5)) (V.Int 15))
  | other -> Alcotest.failf "unexpected body %s" (Format.asprintf "%a" Skel.Ir.pp other)

let test_extract_errors () =
  let fails table src =
    try
      ignore (X.extract table (P.program src));
      false
    with X.Extract_error _ -> true
  in
  let t () =
    let t = Skel.Funtable.create () in
    Skel.Funtable.register t "f" (fun v -> v);
    Skel.Funtable.register t "acc" ~arity:2 (fun v -> fst (V.to_pair v));
    t
  in
  Alcotest.(check bool) "no main" true (fails (t ()) "let x = 1");
  Alcotest.(check bool) "df comp must be external" true
    (fails (t ())
       "external f : int -> int\nlet main = fun xs -> df 2 (fun x -> x) acc 0 xs");
  Alcotest.(check bool) "stage must consume dataflow" true
    (fails (t ()) "external f : int -> int\nlet main = fun x -> let y = f 1 in y");
  Alcotest.(check bool) "unknown function" true
    (fails (t ()) "let main = fun x -> let y = nosuch x in y")

let test_extract_emulation_agree () =
  (* Extraction + IR semantics must equal direct evaluator emulation. *)
  let config = { Tracking.Funcs.default_config with Tracking.Funcs.nproc = 4 } in
  let src = Tracking.Funcs.source config in
  let frames = 2 in
  let table1 = Tracking.Funcs.table config in
  let ex = X.extract ~frames table1 (P.program src) in
  let via_ir = Skel.Sem.run table1 ex.X.program (Option.get ex.X.input) in
  let table2 = Tracking.Funcs.table config in
  let ctx = E.make_ctx ~frames table2 in
  ignore (E.eval_program_env ctx (E.initial_env ctx) (P.program src));
  (* Evaluating [main] runs the bounded itermem loop, which leaves its final
     state and outputs in the context; Sem.run returns the same pair. *)
  let via_eval =
    match ctx.E.final_state with
    | Some st -> V.Tuple [ st; V.List (List.rev ctx.E.collected) ]
    | None -> Alcotest.fail "itermem left no final state"
  in
  Alcotest.(check bool) "agree" true (V.equal via_ir via_eval)


(* ------------------------------------------------------------------ *)
(* Match expressions                                                   *)

let test_parse_match () =
  match P.expression "match xs with | [] -> 0 | x :: _ -> x" with
  | A.Match (A.Var ("xs", _), [ (A.Pnil _, _); (A.Pcons (A.Pvar ("x", _), A.Pwild _, _), _) ], _)
    -> ()
  | e -> Alcotest.failf "unexpected %s" (Format.asprintf "%a" A.pp_expr e)

let test_parse_match_optional_first_bar () =
  match P.expression "match n with 0 -> 1 | _ -> 2" with
  | A.Match (_, [ (A.Pconst (A.Cint 0, _), _); (A.Pwild _, _) ], _) -> ()
  | e -> Alcotest.failf "unexpected %s" (Format.asprintf "%a" A.pp_expr e)

let test_parse_match_list_pattern_sugar () =
  match P.expression "match xs with [a; b] -> a | _ -> 0" with
  | A.Match
      ( _,
        [ (A.Pcons (A.Pvar ("a", _), A.Pcons (A.Pvar ("b", _), A.Pnil _, _), _), _);
          (A.Pwild _, _) ],
        _ ) ->
      ()
  | e -> Alcotest.failf "unexpected %s" (Format.asprintf "%a" A.pp_expr e)

let test_infer_match_list () =
  Alcotest.(check string) "sum type" "int list -> int"
    (infer_str
       "let rec sum xs = match xs with | [] -> 0 | x :: rest -> x + sum rest" "sum")

let test_infer_match_polymorphic () =
  Alcotest.(check string) "safe head" "'a list -> 'a -> 'a"
    (infer_str
       "let hd_or xs dflt = match xs with | [] -> dflt | x :: _ -> x" "hd_or")

let test_infer_match_errors () =
  let fails src = try ignore (infer_str src "x"); false with I.Type_error _ -> true in
  Alcotest.(check bool) "arm types differ" true
    (fails "let x = match 1 with | 0 -> true | _ -> 2");
  Alcotest.(check bool) "pattern type clash" true
    (fails "let x = match 1 with | [] -> 0 | _ -> 1");
  Alcotest.(check bool) "literal clash" true
    (fails {|let x = match 1 with | "a" -> 0 | _ -> 1|})

let test_eval_match_lists () =
  check_int
    "let rec sum xs = match xs with | [] -> 0 | x :: rest -> x + sum rest\nlet x = sum [1; 2; 3; 4]"
    "x" 10

let test_eval_match_literals () =
  check_int
    "let fib = fun n -> let rec f k = match k with | 0 -> 0 | 1 -> 1 | m -> f (m - 1) + f (m - 2) in f n\nlet x = fib 10"
    "x" 55

let test_eval_match_tuples () =
  check_int
    "let swap p = match p with | (a, b) -> (b, a)\nlet x = fst (swap (1, 2))" "x" 2

let test_eval_match_first_arm_wins () =
  check_int "let x = match 5 with | _ -> 1 | 5 -> 2" "x" 1

let test_eval_match_failure () =
  Alcotest.(check bool) "no arm matches" true
    (try ignore (eval_str "let x = match [] with | y :: _ -> y" "x"); false
     with E.Runtime_error _ -> true)

let test_eval_match_deep () =
  check_int
    "let rec pairsum xs = match xs with | [] -> 0 | (a, b) :: rest -> a + b + pairsum rest\nlet x = pairsum [(1, 2); (3, 4)]"
    "x" 10


(* ------------------------------------------------------------------ *)
(* Printer/parser round trip                                           *)

(* Random well-formed expressions over a tiny variable universe. Floats are
   restricted to integral values so printing with %g round-trips exactly. *)
let expr_gen =
  QCheck.Gen.(
    let var = oneofl [ "x"; "y"; "f"; "g" ] in
    let const =
      oneof
        [
          map (fun n -> A.Const (A.Cint (abs n), A.noloc)) small_signed_int;
          map (fun b -> A.Const (A.Cbool b, A.noloc)) bool;
          return (A.Const (A.Cunit, A.noloc));
          map
            (fun n -> A.Const (A.Cfloat (float_of_int (abs n)), A.noloc))
            small_signed_int;
        ]
    in
    let rec build depth =
      if depth = 0 then oneof [ const; map (fun x -> A.Var (x, A.noloc)) var ]
      else
        let sub = build (depth - 1) in
        frequency
          [
            (2, const);
            (2, map (fun x -> A.Var (x, A.noloc)) var);
            ( 1,
              map2
                (fun a b -> A.Tuple ([ a; b ], A.noloc))
                sub sub );
            (1, map (fun es -> A.List (es, A.noloc)) (list_size (int_bound 3) sub));
            (1, map2 (fun f a -> A.App (f, a, A.noloc)) (map (fun x -> A.Var (x, A.noloc)) var) sub);
            ( 1,
              map3
                (fun op a b -> A.Binop (op, a, b, A.noloc))
                (oneofl [ "+"; "-"; "*"; "<"; "="; "::"; "@"; "&&" ])
                sub sub );
            ( 1,
              map3
                (fun c t e -> A.If (c, t, e, A.noloc))
                sub sub sub );
            ( 1,
              map2
                (fun x body -> A.Lambda ([ A.Pvar (x, A.noloc) ], body, A.noloc))
                var sub );
            ( 1,
              map3
                (fun x bound body ->
                  A.Let
                    { recursive = false; pat = A.Pvar (x, A.noloc); bound; body;
                      loc = A.noloc })
                var sub sub );
            ( 1,
              map2
                (fun s arms ->
                  A.Match
                    ( s,
                      [ (A.Pnil A.noloc, fst arms);
                        ( A.Pcons (A.Pvar ("h", A.noloc), A.Pwild A.noloc, A.noloc),
                          snd arms ) ],
                      A.noloc ))
                sub (pair sub sub) );
          ]
    in
    build 3)

let arbitrary_expr =
  QCheck.make expr_gen ~print:(fun e -> Format.asprintf "%a" A.pp_expr e)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"parse (print e) = e" ~count:300 arbitrary_expr (fun e ->
      let printed = Format.asprintf "%a" A.pp_expr e in
      match P.expression printed with
      | parsed -> A.equal_expr e parsed
      | exception (P.Parse_error _ | L.Lex_error _) ->
          QCheck.Test.fail_reportf "did not re-parse: %s" printed)


(* ------------------------------------------------------------------ *)
(* REPL sessions                                                       *)

let repl_session inputs =
  let table = Skel.Funtable.create () in
  Skel.Funtable.register table "triple" ~cost:(fun _ -> 10.0) (fun v ->
      V.Int (3 * V.to_int v));
  let session = ref (Minicaml.Repl.create table) in
  List.map
    (fun input ->
      let outcome = Minicaml.Repl.eval_input !session input in
      session := outcome.Minicaml.Repl.session;
      (outcome.Minicaml.Repl.ok, outcome.Minicaml.Repl.message))
    inputs

let test_repl_bindings_persist () =
  match repl_session [ "let x = 20"; "let y = x + 1"; "x + y" ] with
  | [ (true, m1); (true, m2); (true, m3) ] ->
      Alcotest.(check string) "x" "val x : int = 20" m1;
      Alcotest.(check string) "y" "val y : int = 21" m2;
      Alcotest.(check string) "expr" "- : int = 41" m3
  | _ -> Alcotest.fail "unexpected outcomes"

let test_repl_function_display () =
  match repl_session [ "let id = fun a -> a" ] with
  | [ (true, m) ] -> Alcotest.(check string) "fun" "val id : 'a -> 'a = <fun>" m
  | _ -> Alcotest.fail "unexpected"

let test_repl_errors_do_not_corrupt () =
  match repl_session [ "let x = 7"; "let y = x + true"; "nosuchvar"; "x" ] with
  | [ (true, _); (false, e1); (false, e2); (true, m) ] ->
      Alcotest.(check bool) "type error shown" true
        (Astring.String.is_infix ~affix:"Type error" e1);
      Alcotest.(check bool) "unbound shown" true
        (Astring.String.is_infix ~affix:"error" e2);
      Alcotest.(check string) "x survives" "- : int = 7" m
  | _ -> Alcotest.fail "unexpected outcomes"

let test_repl_external_and_skeletons () =
  match
    repl_session
      [ "external triple : int -> int"; "triple 14";
        "df 4 triple (fun a b -> a + b) 0 [1; 2; 3]" ]
  with
  | [ (true, _); (true, m1); (true, m2) ] ->
      Alcotest.(check string) "external applied" "- : int = 42" m1;
      Alcotest.(check string) "df in repl" "- : int = 18" m2
  | _ -> Alcotest.fail "unexpected outcomes"

(* Eval's skeleton builtins against Sem: each skeleton and each df
   state-access mode, evaluated once through the REPL, must give what
   [Sem.eval_stage] gives on the same IR stage (one application is a
   stateful farm's first frame). *)
let skeleton_table () =
  let ints xs = V.List (List.map (fun x -> V.Int x) xs) in
  Skel.Funtable.of_list
    [
      ("sq", 1, (fun v -> V.Int ((V.to_int v * V.to_int v) + 1)), fun _ -> 1.0);
      ( "add",
        2,
        (fun v ->
          let a, b = V.to_pair v in
          V.Int ((2 * V.to_int a) + V.to_int b)),
        fun _ -> 1.0 );
      ( "scale",
        1,
        (fun v ->
          let e, x = V.to_pair v in
          V.Int (V.to_int e * V.to_int x)),
        fun _ -> 1.0 );
      ( "step",
        1,
        (fun v ->
          let s, x = V.to_pair v in
          let s = V.to_int s and x = V.to_int x in
          V.Tuple [ V.Int (s + x); V.Int ((s * x) + 1) ]),
        fun _ -> 1.0 );
      ( "chunks",
        2,
        (fun v ->
          let n, xs = V.to_pair v in
          let n = V.to_int n and xs = V.to_list xs in
          V.List
            (List.init n (fun i -> V.List (List.filteri (fun j _ -> j mod n = i) xs)))),
        fun _ -> 1.0 );
      ( "wsum",
        1,
        (fun v -> V.Int (List.fold_left (fun a x -> (3 * a) + V.to_int x) 1 (V.to_list v))),
        fun _ -> 1.0 );
      ( "total",
        1,
        (fun v -> V.Int (List.fold_left (fun a x -> a + V.to_int x) 0 (V.to_list v))),
        fun _ -> 1.0 );
      ( "split3",
        1,
        (fun v ->
          let n = V.to_int v in
          if n > 2 then V.Tuple [ ints [ n / 3; n - 1 ]; V.Int (n mod 5) ]
          else V.Tuple [ ints []; V.Int (n + 3) ]),
        fun _ -> 1.0 );
    ]

let test_repl_skeletons_match_sem () =
  let module Ir = Skel.Ir in
  let ints xs = V.List (List.map (fun x -> V.Int x) xs) in
  let items = ints [ 3; 14; 1; 5; 9; 2; 6 ] in
  let df state comp init = Ir.Df { nworkers = 3; comp; acc = "add"; init; state } in
  let cases =
    [
      ("df 3 sq add 4 xs", df Ir.Stateless "sq" (V.Int 4), items);
      ("df_acc 3 sq add 4 xs", df Ir.Accumulator "sq" (V.Int 4), items);
      ("df_ro 3 scale add (3, 4) xs", df Ir.Read_only "scale" (V.pair (V.Int 3) (V.Int 4)), items);
      ( "df_own 3 step add ([0; 5; 11], 4) xs",
        df Ir.Owner "step" (V.pair (ints [ 0; 5; 11 ]) (V.Int 4)),
        items );
      ("df_res 3 step add (2, 4) xs", df Ir.Resource "step" (V.pair (V.Int 2) (V.Int 4)), items);
      ("scm 3 chunks wsum total xs", Ir.Scm { nparts = 3; split = "chunks"; compute = "wsum"; merge = "total" }, items);
      ( "tf 2 split3 add 1 [17; 4; 30]",
        Ir.Tf { nworkers = 2; work = "split3"; acc = "add"; init = V.Int 1 },
        ints [ 17; 4; 30 ] );
    ]
  in
  let table = skeleton_table () in
  let session =
    List.fold_left
      (fun session input ->
        let outcome = Minicaml.Repl.eval_input session input in
        if not outcome.Minicaml.Repl.ok then
          Alcotest.failf "%s: %s" input outcome.Minicaml.Repl.message;
        outcome.Minicaml.Repl.session)
      (Minicaml.Repl.create table)
      [
        "external sq : int -> int";
        "external add : int -> int -> int";
        "external scale : int * int -> int";
        "external step : int * int -> int * int";
        "external chunks : int -> int list -> int list list";
        "external wsum : int list -> int";
        "external total : int list -> int";
        "external split3 : int -> int list * int";
        "let xs = [3; 14; 1; 5; 9; 2; 6]";
      ]
  in
  List.iter
    (fun (src, stage, input) ->
      let expected = Skel.Sem.eval_stage table stage input in
      Alcotest.(check string) src
        ("- : int = " ^ V.to_string expected)
        (Minicaml.Repl.eval_input session src).Minicaml.Repl.message)
    cases

(* A df_own with fewer partition states than workers, or no worker, is a
   runtime error naming the builtin: the REPL reports it and keeps
   answering, and a compile fails with a located [Compile_error]. *)
let test_df_own_state_count () =
  let own n states =
    Printf.sprintf
      "df_own (%d) (fun (s, x) -> (s + x, s * x)) (fun a b -> a + b) (%s, 1) \
       [3; 4; 5]"
      n states
  in
  let reported what m =
    Alcotest.(check bool) (what ^ ": " ^ m) true
      (Astring.String.is_infix ~affix:"Runtime error: df_own" m)
  in
  (match
     repl_session
       [ "let c = " ^ own 3 "[0]"; "1 + 1"; own 0 "[0]"; own (-2) "[]"; "2 + 2";
         own 2 "[0; 10]" ]
   with
  | [ (false, m1); (true, a1); (false, m2); (false, m3); (true, a2); (true, ok) ] ->
      reported "3 workers, 1 state" m1;
      Alcotest.(check bool) "names n and the state count" true
        (Astring.String.is_infix ~affix:"n = 3 workers with 1 partition states" m1);
      reported "no worker" m2;
      reported "negative n" m3;
      Alcotest.(check string) "still answering" "- : int = 2" a1;
      Alcotest.(check string) "still answering after n <= 0" "- : int = 4" a2;
      Alcotest.(check string) "enough states" "- : int = 56" ok
  | outcomes ->
      Alcotest.failf "unexpected outcomes: %s"
        (String.concat " | " (List.map snd outcomes)));
  match
    Skipper_lib.Pipeline.compile_source ~table:(Skel.Funtable.create ())
      ("let c = " ^ own 3 "[0]" ^ "\nlet main = fun x -> x + c\n")
  with
  | _ -> Alcotest.fail "compiled a df_own short of states"
  | exception Skipper_lib.Pipeline.Compile_error m ->
      Alcotest.(check bool) m true (Astring.String.is_infix ~affix:"df_own" m)

(* A runtime error in a global names the line of the binding that raised
   it, not line 0: the globals are evaluated one binding at a time. *)
let test_global_error_located () =
  let src =
    String.concat "\n"
      [
        "let a = 1";
        "let b = a + 1";
        "";
        "let c = df_own 3 (fun (s, x) -> (s + x, s * x)) (fun a b -> a + b) ([0], 1) [3; 4; 5]";
        "let main = fun x -> x + b + c";
      ]
  in
  match Skipper_lib.Pipeline.compile_source ~table:(Skel.Funtable.create ()) src with
  | _ -> Alcotest.fail "compiled a df_own short of states"
  | exception Skipper_lib.Pipeline.Compile_error m ->
      Alcotest.(check bool) ("names df_own: " ^ m) true
        (Astring.String.is_infix ~affix:"evaluating globals: df_own" m);
      Alcotest.(check bool) ("names line 4: " ^ m) true
        (Astring.String.is_infix ~affix:"(at line 4, column " m)

let test_repl_parse_error_message () =
  match repl_session [ "let = 3" ] with
  | [ (false, m) ] ->
      Alcotest.(check bool) "reported" true
        (Astring.String.is_infix ~affix:"error" m)
  | _ -> Alcotest.fail "unexpected"

let test_repl_channel_loop () =
  let table = Skel.Funtable.create () in
  let input = "let a = 6;;\na * 7\n#quit\n" in
  let ic_path = Filename.temp_file "repl" ".in" in
  let oc_path = Filename.temp_file "repl" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove ic_path; Sys.remove oc_path)
    (fun () ->
      Out_channel.with_open_text ic_path (fun oc -> output_string oc input);
      In_channel.with_open_text ic_path (fun ic ->
          Out_channel.with_open_text oc_path (fun oc ->
              Minicaml.Repl.run_channel ~prompt:false table ic oc));
      let out = In_channel.with_open_text oc_path In_channel.input_all in
      Alcotest.(check bool) "binding echoed" true
        (Astring.String.is_infix ~affix:"val a : int = 6" out);
      Alcotest.(check bool) "expression echoed" true
        (Astring.String.is_infix ~affix:"- : int = 42" out))

let () =
  Alcotest.run "minicaml"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lex_basic;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "numbers" `Quick test_lex_numbers;
          Alcotest.test_case "nested comments" `Quick test_lex_comments_nest;
          Alcotest.test_case "string escapes" `Quick test_lex_string_escapes;
          Alcotest.test_case "type variables" `Quick test_lex_tyvar;
          Alcotest.test_case "errors" `Quick test_lex_errors;
          Alcotest.test_case "locations" `Quick test_lex_locations;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "cons right assoc" `Quick test_parse_cons_right_assoc;
          Alcotest.test_case "application left assoc" `Quick test_parse_application_left_assoc;
          Alcotest.test_case "tuples and lists" `Quick test_parse_tuples_and_lists;
          Alcotest.test_case "function sugar" `Quick test_parse_let_fun_sugar;
          Alcotest.test_case "let rec" `Quick test_parse_let_rec;
          Alcotest.test_case "external" `Quick test_parse_external;
          Alcotest.test_case "tuple pattern" `Quick test_parse_tuple_pattern;
          Alcotest.test_case "sequence" `Quick test_parse_sequence;
          Alcotest.test_case "if and fun" `Quick test_parse_if_fun;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "type expressions" `Quick test_parse_type_expression;
        ] );
      ( "inference",
        [
          Alcotest.test_case "constants" `Quick test_infer_constants;
          Alcotest.test_case "polymorphic id" `Quick test_infer_polymorphic_id;
          Alcotest.test_case "let polymorphism" `Quick test_infer_let_polymorphism;
          Alcotest.test_case "recursion" `Quick test_infer_recursion;
          Alcotest.test_case "skeleton signatures" `Quick test_infer_skeleton_signatures;
          Alcotest.test_case "df application" `Quick test_infer_df_application;
          Alcotest.test_case "tracking program" `Quick test_infer_tracking_program;
          Alcotest.test_case "errors" `Quick test_infer_errors;
          Alcotest.test_case "opaque external types" `Quick test_infer_external_opaque_types;
        ] );
      ( "evaluator",
        [
          Alcotest.test_case "arithmetic" `Quick test_eval_arith;
          Alcotest.test_case "closures" `Quick test_eval_closures;
          Alcotest.test_case "recursion" `Quick test_eval_recursion;
          Alcotest.test_case "lists" `Quick test_eval_lists;
          Alcotest.test_case "tuples" `Quick test_eval_tuples;
          Alcotest.test_case "division by zero" `Quick test_eval_division_by_zero;
          Alcotest.test_case "skeletons declaratively" `Quick test_eval_skeletons_declaratively;
          Alcotest.test_case "external cycles charged" `Quick test_eval_external_cycles_charged;
          Alcotest.test_case "functions incomparable" `Quick test_eval_comparison_of_functions_fails;
        ] );
      ( "match",
        [
          Alcotest.test_case "parse match" `Quick test_parse_match;
          Alcotest.test_case "optional first bar" `Quick test_parse_match_optional_first_bar;
          Alcotest.test_case "list pattern sugar" `Quick test_parse_match_list_pattern_sugar;
          Alcotest.test_case "infer sum over list" `Quick test_infer_match_list;
          Alcotest.test_case "infer polymorphic head" `Quick test_infer_match_polymorphic;
          Alcotest.test_case "infer errors" `Quick test_infer_match_errors;
          Alcotest.test_case "eval list recursion" `Quick test_eval_match_lists;
          Alcotest.test_case "eval literal arms" `Quick test_eval_match_literals;
          Alcotest.test_case "eval tuple arm" `Quick test_eval_match_tuples;
          Alcotest.test_case "first arm wins" `Quick test_eval_match_first_arm_wins;
          Alcotest.test_case "match failure" `Quick test_eval_match_failure;
          Alcotest.test_case "deep patterns" `Quick test_eval_match_deep;
        ] );
      ("roundtrip", [ QCheck_alcotest.to_alcotest prop_print_parse_roundtrip ]);
      ( "repl",
        [
          Alcotest.test_case "bindings persist" `Quick test_repl_bindings_persist;
          Alcotest.test_case "function display" `Quick test_repl_function_display;
          Alcotest.test_case "errors do not corrupt" `Quick test_repl_errors_do_not_corrupt;
          Alcotest.test_case "externals and skeletons" `Quick test_repl_external_and_skeletons;
          Alcotest.test_case "skeletons match Sem" `Quick test_repl_skeletons_match_sem;
          Alcotest.test_case "parse error message" `Quick test_repl_parse_error_message;
          Alcotest.test_case "df_own state count" `Quick test_df_own_state_count;
          Alcotest.test_case "a global's runtime error names its line" `Quick
            test_global_error_located;
          Alcotest.test_case "channel loop" `Quick test_repl_channel_loop;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "tracking shape" `Quick test_extract_tracking_shape;
          Alcotest.test_case "scm lambda main" `Quick test_extract_scm_lambda_main;
          Alcotest.test_case "wrapper registration" `Quick test_extract_wrapper_registration;
          Alcotest.test_case "errors" `Quick test_extract_errors;
          Alcotest.test_case "IR vs evaluator emulation" `Quick test_extract_emulation_agree;
        ] );
    ]
