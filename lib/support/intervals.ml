type t = (float * float) list

let empty = []
let eps = 1e-15

let first_fit intervals ~earliest ~duration =
  let rec fit start = function
    | [] -> start
    | (s, e) :: rest ->
        if start +. duration <= s +. eps then start else fit (Float.max start e) rest
  in
  fit earliest intervals

let reserve intervals ~earliest ~duration =
  let start = first_fit intervals ~earliest ~duration in
  let rec insert = function
    | [] -> [ (start, start +. duration) ]
    | (s, _) :: _ as rest when start < s -> (start, start +. duration) :: rest
    | iv :: rest -> iv :: insert rest
  in
  (start, insert intervals)

let total ?(past = 0.0) intervals =
  List.fold_left (fun acc (s, e) -> acc +. (e -. s)) past intervals

let prune intervals ~upto ~past =
  let rec drop past = function
    | (s, e) :: rest when e <= upto -> drop (past +. (e -. s)) rest
    | live -> (past, live)
  in
  drop past intervals

let valid intervals =
  let rec go = function
    | (s1, e1) :: ((s2, _) :: _ as rest) -> s1 <= e1 && e1 <= s2 +. eps && go rest
    | [ (s, e) ] -> s <= e
    | [] -> true
  in
  go intervals
