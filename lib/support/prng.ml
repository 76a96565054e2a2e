(* The 64-bit state lives unboxed in 8 bytes: an [int64] record field would
   box a fresh [Int64] on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t = of_state (bits64 t)
let copy = Bytes.copy

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound <= 0";
  (* Rejection-free modulo is fine here: bounds are tiny w.r.t. 2^62. [v] is
     in [0, 2^62), so it fits a native int and [land]/[mod] agree with
     [Int64.rem]. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  if bound land (bound - 1) = 0 then v land (bound - 1) else v mod bound

let[@inline] float t bound =
  (* Below 2^53 both conversions are exact; [Float.of_int] is inline code,
     [Int64.to_float] a C call. *)
  let u = Float.of_int (Int64.to_int (Int64.shift_right_logical (bits64 t) 11)) in
  bound *. u /. 9007199254740992.0 (* 2^53 *)

(* trunc (s N) from an alias table (DESIGN.md, "Frame noise"). W_k, k >= 1,
   is 2^32 P (k <= s N < k + 1) rounded: composite Simpson (a panel per
   1/64 of x or less, x clipped to 10) over exp (-x^2 / 2), exp by exact
   halving, its series to a^6 and squaring. The support ends at the first
   zero weight, W_-k = W_k and W_0 takes the rest of 2^32. Vose's method
   then runs on the integer masses W_k 2^b with the work lists as stacks
   in column order. Only IEEE-754 + - * / and sqrt, in a fixed order: the
   tables are the same bytes everywhere. *)
module Trunc_normal = struct
  type table = {
    level : float;
    half : int;  (* the values are -half .. half; column c's own is c - half *)
    shift : int;  (* 64 - b *)
    weights : int array;  (* W_k at k + half *)
    keep : int array;  (* column c keeps its own value below this, else: *)
    alias : int array;
  }

  let one = 1 lsl 32

  let exp_neg a =
    let y = ref a and halvings = ref 0 in
    while !y > 0x1p-10 do
      y := !y *. 0.5;
      incr halvings
    done;
    let e = ref 1.0 in
    for i = 6 downto 1 do
      e := 1.0 -. (!y /. float_of_int i *. !e)
    done;
    for _ = 1 to !halvings do
      e := !e *. !e
    done;
    !e

  (* the integral of exp (-x^2 / 2) over [a, min b 10], 0 <= a *)
  let simpson a b =
    let b = Float.min b 10.0 in
    if a >= b then 0.0
    else begin
      let steps = 2 * (1 + int_of_float ((b -. a) *. 64.0)) in
      let h = (b -. a) /. float_of_int steps in
      let f x = exp_neg (x *. x *. 0.5) in
      let sum = ref (f a +. f b) in
      for j = 1 to steps - 1 do
        let weight = if j land 1 = 1 then 4.0 else 2.0 in
        sum := !sum +. (weight *. f (a +. (float_of_int j *. h)))
      done;
      !sum *. h /. 3.0
    end

  let build s =
    let scale = float_of_int one /. sqrt (2.0 *. Float.pi) in
    let rec tail k =
      let p = simpson (float_of_int k /. s) (float_of_int (k + 1) /. s) in
      let w = int_of_float ((scale *. p) +. 0.5) in
      if w = 0 then [] else w :: tail (k + 1)
    in
    let tail = Array.of_list (tail 1) in
    let half = Array.length tail in
    let w0 = one - (2 * Array.fold_left ( + ) 0 tail) in
    let weights =
      Array.init ((2 * half) + 1) (fun i ->
          if i = half then w0 else tail.(abs (i - half) - 1))
    in
    let b = ref 1 in
    while 1 lsl !b <= 2 * half do
      incr b
    done;
    let n = 1 lsl !b in
    let mass = Array.init n (fun c -> if c <= 2 * half then weights.(c) * n else 0) in
    let keep = Array.make n one and alias = Array.init n (fun c -> c - half) in
    (* small columns from index 0 up, large ones from n - 1 down *)
    let stack = Array.make n 0 and ns = ref 0 and nl = ref n in
    let push c =
      if mass.(c) < one then (stack.(!ns) <- c; incr ns) else (decr nl; stack.(!nl) <- c)
    in
    for c = 0 to n - 1 do
      push c
    done;
    (* the masses are exact, so the stacks run out together and every
       column left large holds exactly 2^32 *)
    while !ns > 0 && !nl < n do
      decr ns;
      let l = stack.(!ns) and g = stack.(!nl) in
      incr nl;
      keep.(l) <- mass.(l);
      alias.(l) <- g - half;
      mass.(g) <- mass.(g) + mass.(l) - one;
      push g
    done;
    { level = s; half; shift = 64 - !b; weights; keep; alias }

  (* one entry, since every frame of a run asks for the same level; domains
     that race build equal tables *)
  let cache = Atomic.make None

  let table s =
    if not (s > 0.0 && s <= 1024.0) then
      invalid_arg "Prng.Trunc_normal.table: level outside (0, 1024]";
    match Atomic.get cache with
    | Some tbl when tbl.level = s -> tbl
    | _ ->
        let tbl = build s in
        Atomic.set cache (Some tbl);
        tbl

  let[@inline] draw t tbl =
    let r = bits64 t in
    let c = Int64.to_int (Int64.shift_right_logical r tbl.shift) in
    if Int64.to_int r land 0xFFFF_FFFF < Array.unsafe_get tbl.keep c then c - tbl.half
    else Array.unsafe_get tbl.alias c

  (* [draw]'s pick without its branch: [lo - keep] is in [-2^32, 2^32],
     so [m] is -1 exactly when [lo < keep] and 0 otherwise. *)
  let[@inline] pick tbl r =
    let c = Int64.to_int (Int64.shift_right_logical r tbl.shift) in
    let m = ((Int64.to_int r land 0xFFFF_FFFF) - Array.unsafe_get tbl.keep c) asr 62 in
    ((c - tbl.half) land m) lor (Array.unsafe_get tbl.alias c land lnot m)

  (* The state stays in a local for the whole pass (a register), unboxed,
     and goes back to [t] once at the end. The position is computed in
     [int64] too: [hi width < 2^63], and nothing is tagged until the index.
     [i < width height] and [row * 256 + v < Bytes.length map], so both
     reads and the write go unchecked. *)
  let scatter t tbl n ~width ~height ~map data =
    let m = (Bytes.length map / 256 - 1) / 2 in
    if width <= 0 || height <= 0 || width * height > Bytes.length data then
      invalid_arg "Prng.Trunc_normal.scatter: raster smaller than width * height";
    if Bytes.length map <> ((2 * m) + 1) * 256 then
      invalid_arg "Prng.Trunc_normal.scatter: map is not an odd number of 256-byte rows";
    let w = Int64.of_int width and h = Int64.of_int height in
    let s = ref (Bytes.get_int64_ne t 0) in
    for _ = 1 to n do
      let s1 = Int64.add !s golden_gamma in
      let s2 = Int64.add s1 golden_gamma in
      s := s2;
      let r = mix s1 in
      let x = Int64.shift_right_logical (Int64.mul (Int64.shift_right_logical r 32) w) 32
      and y = Int64.shift_right_logical (Int64.mul (Int64.logand r 0xFFFF_FFFFL) h) 32 in
      let i = Int64.to_int (Int64.add (Int64.mul y w) x) in
      let row = Int.min m (Int.max (-m) (pick tbl (mix s2))) + m in
      Bytes.unsafe_set data i
        (Bytes.unsafe_get map ((row lsl 8) + Char.code (Bytes.unsafe_get data i)))
    done;
    Bytes.set_int64_ne t 0 !s

  let half tbl = tbl.half

  let weights tbl = Array.to_list (Array.mapi (fun i w -> (i - tbl.half, w)) tbl.weights)
  let columns tbl =
    Array.mapi (fun c keep -> (c - tbl.half, keep, tbl.alias.(c))) tbl.keep

  let digest tbl =
    Array.to_list (columns tbl)
    |> List.map (fun (own, keep, alias) -> Printf.sprintf "%d %d %d" own keep alias)
    |> String.concat "\n" |> Digest.string |> Digest.to_hex

  let chi_square tbl t draws =
    let counts = Array.make (Array.length tbl.weights) 0 in
    for _ = 1 to draws do
      let i = draw t tbl + tbl.half in
      counts.(i) <- counts.(i) + 1
    done;
    (* bins in value order, each closed once it expects 5 draws; what is
       left joins the last one *)
    let bins = ref [] and o = ref 0.0 and e = ref 0.0 in
    Array.iteri
      (fun i w ->
        o := !o +. float_of_int counts.(i);
        e := !e +. (float_of_int draws *. float_of_int w /. float_of_int one);
        if !e >= 5.0 then begin
          bins := (!o, !e) :: !bins;
          o := 0.0;
          e := 0.0
        end)
      tbl.weights;
    let bins =
      match !bins with
      | (o', e') :: rest -> (o' +. !o, e' +. !e) :: rest
      | [] -> [ (!o, !e) ]
    in
    ( List.fold_left (fun acc (o, e) -> acc +. ((o -. e) *. (o -. e) /. e)) 0.0 bins,
      List.length bins - 1 )
end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
