let scm n split comp merge x = merge (List.map comp (split n x))

(* Fused: comp then acc, item by item. *)
let df _n comp acc z xs = List.fold_left (fun z x -> acc z (comp x)) z xs
let df_ro n comp acc (env, z) xs = df n (fun x -> comp (env, x)) acc z xs

(* Item i goes to worker i mod n, whose state only it reads and writes. *)
let df_own n comp acc (states, z) xs =
  let states = Array.of_list states and i = ref (-1) in
  let comp x =
    incr i;
    let k = !i mod n in
    let s, y = comp (states.(k), x) in
    states.(k) <- s;
    y
  in
  let z = df n comp acc z xs in
  (Array.to_list states, z)

let df_res n comp acc (s, z) xs =
  let s = ref s in
  let comp x =
    let s', y = comp (!s, x) in
    s := s';
    y
  in
  let z = df n comp acc z xs in
  (!s, z)

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
