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

let bool t = Int64.logand (bits64 t) 1L = 1L

(* A loop rather than a recursive function, so that [gaussian] can be inlined
   and its result stays unboxed in the caller. *)
let[@inline] gaussian t =
  let u1 = ref (float t 1.0) in
  while !u1 <= 1e-300 do
    u1 := float t 1.0
  done;
  let u2 = float t 1.0 in
  sqrt (-2.0 *. log !u1) *. cos (2.0 *. Float.pi *. u2)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
