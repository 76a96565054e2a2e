let located stage msg loc =
  Error (Format.asprintf "%s: %s (at %a)" stage msg Ast.pp_loc loc)

let parse src =
  match Parser.program src with
  | ast -> Ok ast
  | exception Parser.Parse_error (msg, loc) -> located "parse error" msg loc
  | exception Lexer.Lex_error (msg, loc) -> located "lexical error" msg loc

let typecheck ast =
  match Infer.infer_program Infer.initial_env ast with
  | _, schemes ->
      Ok (List.map (fun (n, s) -> (n, Types.scheme_to_string s)) schemes)
  | exception Infer.Type_error (msg, loc) -> located "type error" msg loc

let extract ?frames table ast =
  match Extract.extract ?frames table ast with
  | extraction -> Ok extraction
  | exception Extract.Extract_error (msg, loc) ->
      located "skeleton extraction" msg loc
