type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Tuple of t list
  | List of t list
  | Image of Vision.Image.t
  | Win of Vision.Window.t
  | Record of (string * t) list

exception Type_error of string

let unit = Unit
let int n = Int n
let float f = Float f
let bool b = Bool b
let str s = Str s
let pair a b = Tuple [ a; b ]
let list vs = List vs
let image img = Image img
let window w = Win w
let record fields = Record fields

let kind = function
  | Unit -> "unit"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "string"
  | Tuple vs -> Printf.sprintf "tuple/%d" (List.length vs)
  | List _ -> "list"
  | Image _ -> "image"
  | Win _ -> "window"
  | Record _ -> "record"

let type_error expected v =
  raise (Type_error (Printf.sprintf "expected %s, got %s" expected (kind v)))

let to_int = function Int n -> n | v -> type_error "int" v
let to_float = function Float f -> f | Int n -> float_of_int n | v -> type_error "float" v
let to_str = function Str s -> s | v -> type_error "string" v
let to_list = function List vs -> vs | v -> type_error "list" v
let to_pair = function Tuple [ a; b ] -> (a, b) | v -> type_error "pair" v
let to_image = function Image img -> img | v -> type_error "image" v

let field name = function
  | Record fields -> (
      match List.assoc_opt name fields with
      | Some x -> x
      | None -> raise (Type_error (Printf.sprintf "record has no field %S" name)))
  | v -> type_error "record" v

let rec byte_size = function
  | Unit | Bool _ -> 1
  | Int _ -> 4
  | Float _ -> 8
  | Str s -> 4 + String.length s
  | Tuple vs -> List.fold_left (fun acc v -> acc + byte_size v) 2 vs
  | List vs -> List.fold_left (fun acc v -> acc + byte_size v) 4 vs
  | Image img -> 8 + Vision.Image.size img
  | Win _ -> 16
  | Record fields -> List.fold_left (fun acc (_, v) -> acc + byte_size v) 4 fields

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Str x, Str y -> String.equal x y
  | Tuple xs, Tuple ys | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | Image x, Image y -> Vision.Image.equal x y
  | Win x, Win y -> Vision.Window.equal x y
  | Record xs, Record ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (nx, vx) (ny, vy) -> String.equal nx ny && equal vx vy)
           xs ys
  | ( (Unit | Bool _ | Int _ | Float _ | Str _ | Tuple _ | List _ | Image _ | Win _
      | Record _),
      _ ) ->
      false

let rank = function
  | Unit -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Str _ -> 4
  | Tuple _ -> 5
  | List _ -> 6
  | Image _ -> 7
  | Win _ -> 8
  | Record _ -> 9

let rec compare a b =
  match (a, b) with
  | Unit, Unit -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Tuple xs, Tuple ys | List xs, List ys -> List.compare compare xs ys
  | Image x, Image y ->
      if Vision.Image.equal x y then 0
      else Stdlib.compare (Vision.Image.width x, Vision.Image.height x)
             (Vision.Image.width y, Vision.Image.height y)
  | Win x, Win y -> Stdlib.compare x y
  | Record xs, Record ys ->
      List.compare (fun (nx, vx) (ny, vy) ->
          match String.compare nx ny with 0 -> compare vx vy | c -> c)
        xs ys
  | a, b -> Int.compare (rank a) (rank b)

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Bool b -> Format.pp_print_bool ppf b
  | Int n -> Format.pp_print_int ppf n
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s
  | Tuple vs ->
      Format.fprintf ppf "(@[%a@])"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp)
        vs
  | List vs ->
      Format.fprintf ppf "[@[%a@]]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp)
        vs
  | Image img -> Vision.Image.pp ppf img
  | Win w -> Vision.Window.pp ppf w
  | Record fields ->
      let pp_field ppf (name, v) = Format.fprintf ppf "%s = %a" name pp v in
      Format.fprintf ppf "{@[%a@]}"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_field)
        fields

let to_string v = Format.asprintf "%a" pp v
