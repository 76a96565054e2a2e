type ty = Tvar of tv ref | Tcon of string * ty list
and tv = Unbound of int * int | Link of ty

type scheme = { vars : int list; body : ty }

(* Atomic and monotonic: concurrent inference jobs on separate domains
   (e.g. a Domain_pool sweep compiling several specs) draw from one
   counter, so variable ids stay globally unique — ids are identity in the
   occurs check, [generalize] and [instantiate], and a reset racing a
   concurrent inference could alias two live variables. Raw ids therefore
   differ run to run, but nothing observable depends on them: [to_string]
   letters variables by order of first appearance within each type. *)
let counter = Atomic.make 0

let new_var level =
  Tvar (ref (Unbound (1 + Atomic.fetch_and_add counter 1, level)))

let int_t = Tcon ("int", [])
let float_t = Tcon ("float", [])
let bool_t = Tcon ("bool", [])
let string_t = Tcon ("string", [])
let unit_t = Tcon ("unit", [])
let list_t t = Tcon ("list", [ t ])
let arrow a b = Tcon ("->", [ a; b ])
let arrows args ret = List.fold_right arrow args ret
let tuple ts = Tcon ("tuple", ts)
let rec repr = function
  | Tvar ({ contents = Link t } as r) ->
      let t' = repr t in
      r := Link t';
      t'
  | t -> t

exception Unify_error of ty * ty

(* During unification of [a] and [b], occurs-check and level adjustment: any
   unbound variable inside the bound type is lowered to [level] so it cannot
   later be generalised past the binding point. *)
let rec occurs_adjust id level t =
  match repr t with
  | Tvar ({ contents = Unbound (id', level') } as r) ->
      if id = id' then raise Exit
      else if level' > level then r := Unbound (id', level)
  | Tvar { contents = Link _ } -> assert false
  | Tcon (_, args) -> List.iter (occurs_adjust id level) args

let unify a b =
  let rec go a b =
    let a = repr a and b = repr b in
    match (a, b) with
    | Tvar r1, Tvar r2 when r1 == r2 -> ()
    | Tvar ({ contents = Unbound (id, level) } as r), t
    | t, Tvar ({ contents = Unbound (id, level) } as r) -> (
        match occurs_adjust id level t with
        | () -> r := Link t
        | exception Exit -> raise (Unify_error (a, b)))
    | Tcon (n1, args1), Tcon (n2, args2) ->
        if n1 <> n2 || List.length args1 <> List.length args2 then
          raise (Unify_error (a, b))
        else List.iter2 go args1 args2
    | Tvar { contents = Link _ }, _ | _, Tvar { contents = Link _ } -> assert false
  in
  try go a b with Unify_error _ -> raise (Unify_error (a, b))

let generalize level ty =
  let vars = ref [] in
  let rec walk t =
    match repr t with
    | Tvar { contents = Unbound (id, level') } ->
        if level' > level && not (List.mem id !vars) then vars := id :: !vars
    | Tvar { contents = Link _ } -> assert false
    | Tcon (_, args) -> List.iter walk args
  in
  walk ty;
  { vars = List.rev !vars; body = ty }

let instantiate level scheme =
  if scheme.vars = [] then scheme.body
  else begin
    let mapping = List.map (fun id -> (id, new_var level)) scheme.vars in
    let rec copy t =
      match repr t with
      | Tvar { contents = Unbound (id, _) } as orig -> (
          match List.assoc_opt id mapping with Some fresh -> fresh | None -> orig)
      | Tvar { contents = Link _ } -> assert false
      | Tcon (n, args) -> Tcon (n, List.map copy args)
    in
    copy scheme.body
  end

let mono ty = { vars = []; body = ty }

let builtin_arities =
  [ ("int", 0); ("float", 0); ("bool", 0); ("string", 0); ("unit", 0); ("list", 1) ]

let of_type_expr texpr =
  let named = Hashtbl.create 4 in
  let rec go = function
    | Ast.Tvar_expr (name, _) -> (
        match Hashtbl.find_opt named name with
        | Some v -> v
        | None ->
            (* Level max_int: always generalisable. *)
            let v = new_var max_int in
            Hashtbl.add named name v;
            v)
    | Ast.Tarrow_expr (a, b, _) -> arrow (go a) (go b)
    | Ast.Ttuple_expr (ts, _) -> tuple (List.map go ts)
    | Ast.Tname (n, args, _) -> (
        let args = List.map go args in
        match List.assoc_opt n builtin_arities with
        | Some arity when arity <> List.length args ->
            failwith
              (Printf.sprintf "type constructor %s expects %d argument(s)" n arity)
        | _ -> Tcon (n, args))
  in
  let body = go texpr in
  generalize (-1) body

(* Deterministic pretty printing: unbound variables are lettered in order of
   first appearance. *)
let to_string ty =
  let names = Hashtbl.create 8 in
  let next = ref 0 in
  let name_of id =
    match Hashtbl.find_opt names id with
    | Some n -> n
    | None ->
        let i = !next in
        incr next;
        let n =
          if i < 26 then Printf.sprintf "'%c" (Char.chr (Char.code 'a' + i))
          else Printf.sprintf "'t%d" i
        in
        Hashtbl.add names id n;
        n
  in
  (* Precedence levels: 0 = arrow position (no parens needed), 1 = tuple
     component (parenthesise arrows), 2 = constructor argument
     (parenthesise arrows and tuples). Sub-terms are rendered left to right
     so variable letters follow reading order. *)
  let rec go level t =
    match repr t with
    | Tvar { contents = Unbound (id, _) } -> name_of id
    | Tvar { contents = Link _ } -> assert false
    | Tcon ("->", [ a; b ]) ->
        let left = go 1 a in
        let right = go 0 b in
        let s = left ^ " -> " ^ right in
        if level > 0 then "(" ^ s ^ ")" else s
    | Tcon ("tuple", ts) ->
        let parts = List.map (go 2) ts in
        let s = String.concat " * " parts in
        if level > 1 then "(" ^ s ^ ")" else s
    | Tcon ("list", [ t ]) ->
        let elt = go 2 t in
        elt ^ " list"
    | Tcon (n, []) -> n
    | Tcon (n, args) ->
        let parts = List.map (go 0) args in
        Printf.sprintf "(%s) %s" (String.concat ", " parts) n
  in
  go 0 ty

let scheme_to_string s = to_string s.body
