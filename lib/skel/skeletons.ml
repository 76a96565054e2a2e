let scm n split comp merge x = merge (List.map comp (split n x))
let df _n comp acc z xs = List.fold_left acc z (List.map comp xs)

let tf _n work acc z xs =
  let rec loop z = function
    | [] -> z
    | x :: rest ->
        let subs, y = work x in
        loop (acc z y) (subs @ rest)
  in
  loop z xs

let itermem inp loop out z x =
  let rec f z =
    let z', y = loop (z, inp x) in
    out y;
    f z'
  in
  f z
