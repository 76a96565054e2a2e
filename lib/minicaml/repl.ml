type session = {
  tenv : Infer.env;
  venv : Eval.env;
  ctx : Eval.ctx;
  counter : int;  (** type-variable naming reset ticker *)
}

type outcome = { session : session; message : string; ok : bool }

let create table =
  let ctx = Eval.make_ctx ~frames:1 table in
  {
    tenv = Infer.initial_env;
    venv = Eval.initial_env ctx;
    ctx;
    counter = 0;
  }

let banner =
  "        SKiPPER specification toplevel\n\
  \        (skeletons df, scm, tf, itermem in scope; #quit or Ctrl-D to leave)\n"

(* Render a runtime value, falling back for closures. *)
let render_value v =
  match v with
  | Eval.Vclos _ | Eval.Vbuiltin _ -> "<fun>"
  | v -> Format.asprintf "%a" Eval.pp_value v

let eval_input session input =
  let fail message = { session; message; ok = false } in
  match Parser.program input with
  | exception Parser.Parse_error (msg, loc) ->
      (* Maybe it is a bare expression rather than a top-level binding. *)
      (match Parser.expression input with
      | expr -> (
          match Infer.infer_expr session.tenv expr with
          | ty -> (
              match Eval.eval_expr session.ctx session.venv expr with
              | v ->
                  {
                    session;
                    message =
                      Printf.sprintf "- : %s = %s" (Types.to_string ty) (render_value v);
                    ok = true;
                  }
              | exception Eval.Runtime_error m -> fail ("Runtime error: " ^ m))
          | exception Infer.Type_error (m, l) ->
              fail (Printf.sprintf "Type error: %s (at %s)" m (Format.asprintf "%a" Ast.pp_loc l)))
      | exception _ ->
          fail (Printf.sprintf "Parse error: %s (at %s)" msg (Format.asprintf "%a" Ast.pp_loc loc)))
  | exception Lexer.Lex_error (msg, loc) ->
      fail (Printf.sprintf "Lexical error: %s (at %s)" msg (Format.asprintf "%a" Ast.pp_loc loc))
  | [] -> { session; message = ""; ok = true }
  | tops -> (
      match Infer.infer_program session.tenv tops with
      | exception Infer.Type_error (m, l) ->
          fail (Printf.sprintf "Type error: %s (at %s)" m (Format.asprintf "%a" Ast.pp_loc l))
      | tenv', schemes -> (
          match Eval.eval_program_env session.ctx session.venv tops with
          | exception Eval.Runtime_error m -> fail ("Runtime error: " ^ m)
          | venv' ->
              let lines =
                List.map
                  (fun (name, scheme) ->
                    let shown =
                      match Eval.lookup venv' name with
                      | Some v -> render_value v
                      | None -> "<extern>"
                    in
                    Printf.sprintf "val %s : %s = %s" name
                      (Types.scheme_to_string scheme) shown)
                  schemes
              in
              {
                session = { session with tenv = tenv'; venv = venv' };
                message = String.concat "\n" lines;
                ok = true;
              }))

let run_channel ?(prompt = true) table ic oc =
  output_string oc banner;
  let session = ref (create table) in
  let rec loop () =
    if prompt then begin
      output_string oc "# ";
      flush oc
    end;
    match In_channel.input_line ic with
    | None -> output_string oc "\n"
    | Some line when String.trim line = "#quit" -> output_string oc "\n"
    | Some line ->
        let line =
          match String.index_opt line ';' with
          | Some i when i + 1 < String.length line && line.[i + 1] = ';' ->
              String.sub line 0 i
          | _ -> line
        in
        if String.trim line <> "" then begin
          let outcome = eval_input !session line in
          session := outcome.session;
          if outcome.message <> "" then begin
            output_string oc outcome.message;
            output_string oc "\n"
          end
        end;
        flush oc;
        loop ()
  in
  loop ()
