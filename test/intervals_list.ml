(* The link book as a sorted list of disjoint [(start, stop)] intervals,
   rebuilt on every reservation: the reference implementation
   [Support.Intervals] must match bit for bit ([test_support]'s book
   oracle) and the static scheduler's oracle books with ([test_syndex]). *)

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

let total intervals = List.fold_left (fun acc (s, e) -> acc +. (e -. s)) 0.0 intervals
