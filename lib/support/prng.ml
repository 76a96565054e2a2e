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

let int_range t lo hi =
  if hi < lo then invalid_arg "Prng.int_range: hi < lo";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  (* Below 2^53 both conversions are exact; [Float.of_int] is inline code,
     [Int64.to_float] a C call. *)
  let u = Float.of_int (Int64.to_int (Int64.shift_right_logical (bits64 t) 11)) in
  bound *. u /. 9007199254740992.0 (* 2^53 *)

(* A loop rather than a recursive function, so that [gaussian] can be inlined
   and its result stays unboxed in the caller. *)
let[@inline] gaussian t =
  let u1 = ref (float t 1.0) in
  while !u1 <= 1e-300 do
    u1 := float t 1.0
  done;
  let u2 = float t 1.0 in
  sqrt (-2.0 *. log !u1) *. cos (2.0 *. Float.pi *. u2)

(* [gaussian_trunc]: [int_of_float (s *. gaussian t)] from tables, with
   libm deciding only the draws the tables cannot.

   Both paths read the draws [gaussian] reads: [n1], the first nonzero
   53-bit draw ([float t 1.0 <= 1e-300] exactly when the draw is 0), and
   [n2]; u1 = n1 2^-53 and u2 = n2 2^-53 exactly. The table path computes
   y = s R c, R = sqrt (-2 ln u1), c = cos (2 pi u2):

   - ln u1: n1 = m 2^(e-52) with m in [2^52, 2^53), rounded to the nearest
     knot j 2^44 (j in 256..512), so with c_j = j / 256
     ln u1 = (e - 53) ln 2 + ln c_j + ln (1 + r), r = (m - j 2^44) / (j 2^44),
     |r| <= 2^-9, and ln (1 + r) from its series to r^5. The top knot,
     c = 2, is the very double the exponent is scaled by, so for u1 near 1
     the two cancel exactly and ln u1 keeps its relative accuracy. The
     tables and series hold -2 ln, an exact scaling.
   - cos (2 pi u2): n2 rounded to the nearest multiple of 2^43 (knot i in
     0..1024, 1024 wrapping to 0), cos (a_i + h) from cos a_i and sin a_i
     (a_i = 2 pi i / 1024) and the series of cos h to h^4 and sin h to h^5,
     |h| <= pi / 1024.

   Error, with u = 2^-53 and libm's log, cos and sin within 1 ulp (sqrt is
   correctly rounded):
   - c: the tables are within 3.5e-16 (libm on the first quadrant, exact
     symmetries), the series and small products add < 4e-18 and the last
     addition u; libm's own argument fl (2 pi u2) is off by <= 6.2 u and its
     cos by u. So |c_table - c_libm| <= 11.4 u.
   - R: the roundings of ln u1 sum to <= u (4.45 |ln u1| + 2.8), since
     e = 53 - k with k <= 1.443 |ln u1| + 1; |sqrt a - sqrt b| <=
     |a - b| / sqrt a then gives |R_table - R| <= u (5.45 R + 5.6 / R). Off
     the top knot u1 <= 1 - 2^-10, so R >= 0.0442; on it, ln (1 + r) comes
     from an exact r, to a relative 5 u.
   - R <= sqrt (106 ln 2) < 8.58, so |y_table - y_libm| <= delta =
     |s| u (18.9 R + 5.6 / R) + 2.01 u (|y_table| + |y_libm|) <= 198 u |s|.
   The guard eps = 1.125 2^-38 |s| = 36864 u |s| is over 186 delta, which
   also covers the roundings of y -. eps and y +. eps. When
   trunc (y - eps) = trunc (y + eps), y_libm lies between and truncates
   alike (Ziv's rounding test); otherwise, or when |y| >= 2^30 (the range
   keeps y -. eps and y +. eps well inside [int_of_float]'s; a non-finite
   s or y fails it too), the libm expression decides. DESIGN.md, "Frame
   noise", has the derivation in full. *)

(* -2 ln (j / 256), j = 256 + i; the last, -2 ln 2, is the one [trunc_table]
   scales the exponent by *)
let ln_knots =
  Array.init 257 (fun i -> -2.0 *. log (float_of_int (256 + i) /. 256.0))

let neg2_ln2 = ln_knots.(256)

(* 1 / (j 2^44), j = 256 + i: one rounding of 1 / j, scaled exactly *)
let inv_knots =
  Array.init 257 (fun i -> 1.0 /. float_of_int (256 + i) *. 0x1p-44)

(* cos and sin of 2 pi i / 1024: libm on the first quadrant, exact
   negations and swaps for the others *)
let cos_knots, sin_knots =
  let quadrant =
    Array.init 256 (fun k ->
        let a = float_of_int k *. (Float.pi /. 512.0) in
        (cos a, sin a))
  in
  let knot i =
    let c, s = quadrant.(i land 255) in
    match i lsr 8 with
    | 0 -> (c, s)
    | 1 -> (-.s, c)
    | 2 -> (-.c, -.s)
    | _ -> (s, -.c)
  in
  (Array.init 1024 (fun i -> fst (knot i)), Array.init 1024 (fun i -> snd (knot i)))

(* 2 pi 2^-53: [2 * Float.pi] scaled exactly *)
let two_pi_ulp = 2.0 *. Float.pi *. 0x1p-53

(* no truncation of a [gaussian_trunc] result is [undecided]: the table
   path returns truncations of |y| < 2^30 *)
let undecided = min_int

let[@inline] trunc_table s n1 n2 =
  (* n1 = m 2^(e - 52), m in [2^52, 2^53). The first three steps are
     branch-free: half the draws need none, and a mispredicted branch costs
     more than the shifts. *)
  let b = Bool.to_int (n1 < 0x10_0000_0000_0000) in
  let m = n1 lsl b and e = 52 - b in
  let b = Bool.to_int (m < 0x10_0000_0000_0000) in
  let m = m lsl b and e = e - b in
  let b = Bool.to_int (m < 0x10_0000_0000_0000) in
  let m = ref (m lsl b) and e = ref (e - b) in
  while !m < 0x10_0000_0000_0000 do
    m := !m lsl 1;
    decr e
  done;
  let j = (!m + 0x800_0000_0000) lsr 44 in
  let i = j - 256 in
  let r = Float.of_int (!m - (j lsl 44)) *. Array.unsafe_get inv_knots i in
  (* -2 ln (1 + r) to r^5, in Estrin's scheme *)
  let r2 = r *. r in
  let ln1p =
    (r *. -2.0)
    +. (r2 *. (1.0 +. (r *. -0.666666666666666667)))
    +. (r2 *. r2 *. (0.5 +. (r *. -0.4)))
  in
  let x = (Float.of_int (!e - 53) *. neg2_ln2) +. Array.unsafe_get ln_knots i +. ln1p in
  let k = (n2 + 0x400_0000_0000) lsr 43 in
  let h = Float.of_int (n2 - (k lsl 43)) *. two_pi_ulp in
  let k = k land 1023 in
  let ck = Array.unsafe_get cos_knots k and sk = Array.unsafe_get sin_knots k in
  let h2 = h *. h in
  let cos_h_1 = h2 *. (-0.5 +. (h2 *. 0.0416666666666666667)) in
  let sin_h =
    h *. (1.0 +. (h2 *. (-0.166666666666666667 +. (h2 *. 0.00833333333333333333))))
  in
  let sc = s *. (ck +. ((ck *. cos_h_1) -. (sk *. sin_h))) in
  let y = sqrt x *. sc in
  let eps = Float.abs s *. 0x1.2p-38 in
  if Float.abs y < 0x1p30 then begin
    let lo = int_of_float (y -. eps) in
    if lo = int_of_float (y +. eps) then lo else undecided
  end
  else undecided

(* [gaussian]'s expression on the same draws *)
let trunc_libm s n1 n2 =
  let u1 = Float.of_int n1 /. 9007199254740992.0
  and u2 = Float.of_int n2 /. 9007199254740992.0 in
  int_of_float (s *. (sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)))

let[@inline] draw53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

let gaussian_trunc t s =
  let n1 = ref (draw53 t) in
  while !n1 = 0 do
    n1 := draw53 t
  done;
  let n2 = draw53 t in
  let y = trunc_table s !n1 n2 in
  if y <> undecided then y else trunc_libm s !n1 n2

let gaussian_trunc_draws s n1 n2 =
  if n1 <= 0 || n1 >= 1 lsl 53 || n2 < 0 || n2 >= 1 lsl 53 then
    invalid_arg "Prng.gaussian_trunc_draws: draw outside [0, 2^53)";
  let y = trunc_table s n1 n2 in
  if y <> undecided then (y, true) else (trunc_libm s n1 n2, false)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
