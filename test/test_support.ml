(* Tests for the support library: deterministic PRNG, the binary heap,
   busy-interval reservations, the JSON reader/printer (escape coverage,
   \uXXXX and surrogate pairs), the bench baseline gate (bit-pattern float
   identity, field shape) and %{key} path templating. *)

let test_prng_determinism () =
  let a = Support.Prng.create 42 and b = Support.Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Support.Prng.bits64 a) (Support.Prng.bits64 b)
  done

let test_prng_seeds_differ () =
  let a = Support.Prng.create 1 and b = Support.Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Support.Prng.bits64 a = Support.Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_prng_split_independent () =
  let a = Support.Prng.create 7 in
  let b = Support.Prng.split a in
  let xa = Support.Prng.bits64 a and xb = Support.Prng.bits64 b in
  Alcotest.(check bool) "split streams differ" true (xa <> xb)

let test_prng_copy () =
  let a = Support.Prng.create 9 in
  let _ = Support.Prng.bits64 a in
  let b = Support.Prng.copy a in
  Alcotest.(check int64) "copy resumes identically" (Support.Prng.bits64 a)
    (Support.Prng.bits64 b)

let test_prng_int_bounds () =
  let rng = Support.Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Support.Prng.int rng 17 in
    Alcotest.(check bool) "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_prng_int_rejects_nonpositive () =
  let rng = Support.Prng.create 5 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound <= 0") (fun () ->
      ignore (Support.Prng.int rng 0))

let test_prng_float_bounds () =
  let rng = Support.Prng.create 8 in
  for _ = 1 to 1000 do
    let v = Support.Prng.float rng 2.5 in
    Alcotest.(check bool) "0 <= v < 2.5" true (v >= 0.0 && v < 2.5)
  done

(* The frame-noise sampler against the normal it stands for: trunc (60 N)
   has mean 0 and a variance within 1.5% of 60^2 (truncation removes about
   60 sqrt (2 / pi) - 1/3). *)
let test_prng_gaussian_moments () =
  let rng = Support.Prng.create 10 in
  let noise = Support.Prng.Trunc_normal.table 60.0 in
  let n = 20_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = float_of_int (Support.Prng.Trunc_normal.draw rng noise) /. 60.0 in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (abs_float mean < 0.02);
  Alcotest.(check bool) "variance near 1" true (abs_float (var -. 1.0) < 0.05)

let test_prng_shuffle_permutation () =
  let rng = Support.Prng.create 11 in
  let a = Array.init 50 Fun.id in
  Support.Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* Golden pins: MD5 over the first 32 outputs of each stream, recorded
   before the generator's state was unboxed. Floats are pinned by bit
   pattern, so any change to a single draw shows. *)
let prng_pins =
  [
    ( 0,
      [
        ("bits64", "17f475f620c1a84d19be1d2103405b03");
        ("int 512", "3202aa8562e3f2851165241171190cb5");
        ("int 17", "8b93cf692cced1943bcb065d53dd215a");
        ("int 1", "04ec8ee6d0a1a5bd03232def786e0504");
        ("float 1.0", "caefb06b76ab9fc08c12c0c42166b24e");
        ("split bits64", "c49ffb95d1109b2b06929de90571138b");
      ] );
    ( 1,
      [
        ("bits64", "9f93ed8f716c62b9f134f09ec8cc8cbd");
        ("int 512", "6686e352a58c7ce08a8d7daa77a4d0dd");
        ("int 17", "2396f528431e1aacea39bd2e8f766339");
        ("int 1", "04ec8ee6d0a1a5bd03232def786e0504");
        ("float 1.0", "75b2caf3749f6e7e7fe32563ce57b1cc");
        ("split bits64", "e112f671af71d3759ad99a47c7d937d6");
      ] );
    ( 42,
      [
        ("bits64", "b42d62a840a61469bfa00756ef612558");
        ("int 512", "2cb3eed4f697ff51c8a33d39db98d335");
        ("int 17", "960cc0b6551da63a1adf89301ac6fc3c");
        ("int 1", "04ec8ee6d0a1a5bd03232def786e0504");
        ("float 1.0", "6f41866880680d5a2c7e5d32830aa96e");
        ("split bits64", "46ba3a7ac4db2fc9d02ca78c85df5d53");
      ] );
    ( -1,
      [
        ("bits64", "c23ca9390b7c38426e336c9227b64467");
        ("int 512", "6c21c37b52d58c2c55d66db21ace44c3");
        ("int 17", "e7da945f0292521a496a4952af69c67d");
        ("int 1", "04ec8ee6d0a1a5bd03232def786e0504");
        ("float 1.0", "987c2af2c2675fab3e1332f76d12c392");
        ("split bits64", "46703004e5bcbbf184db124f315b5e86");
      ] );
    ( max_int,
      [
        ("bits64", "1e47435d7b78fb9d496025b926d38579");
        ("int 512", "2421373d03090e0cf0d107e40b457725");
        ("int 17", "91e068c1074346d43a4a54a12a951ca9");
        ("int 1", "04ec8ee6d0a1a5bd03232def786e0504");
        ("float 1.0", "07dc044ac12200502ed6ad59e7ffb49d");
        ("split bits64", "da902b49cd7d7d26f0ed1b17ea997a6d");
      ] );
  ]

let prng_stream = function
  | "bits64" | "split bits64" -> fun g -> Printf.sprintf "%Lx" (Support.Prng.bits64 g)
  | "int 512" -> fun g -> string_of_int (Support.Prng.int g 512)
  | "int 17" -> fun g -> string_of_int (Support.Prng.int g 17)
  | "int 1" -> fun g -> string_of_int (Support.Prng.int g 1)
  | "float 1.0" ->
      fun g -> Printf.sprintf "%Lx" (Int64.bits_of_float (Support.Prng.float g 1.0))
  | s -> Alcotest.failf "unknown stream %s" s

let test_prng_golden () =
  List.iter
    (fun (seed, streams) ->
      List.iter
        (fun (name, expected) ->
          let g = Support.Prng.create seed in
          let g = if name = "split bits64" then Support.Prng.split g else g in
          let values = List.init 32 (fun _ -> prng_stream name g) in
          Alcotest.(check string)
            (Printf.sprintf "seed %d, %s" seed name)
            expected
            (Digest.to_hex (Digest.string (String.concat "," values))))
        streams)
    prng_pins;
  (* The first two raw outputs of seed 42, spelled out. *)
  let g = Support.Prng.create 42 in
  let x0 = Support.Prng.bits64 g in
  let x1 = Support.Prng.bits64 g in
  Alcotest.(check (list int64)) "seed 42 head"
    [ 0xbdd732262feb6e95L; 0x28efe333b266f103L ] [ x0; x1 ]

let test_prng_copy_independent () =
  let draws g n = List.init n (fun _ -> Support.Prng.bits64 g) in
  let a = Support.Prng.create 3 in
  ignore (Support.Prng.bits64 a);
  let b = Support.Prng.copy a in
  let from_a = draws a 8 in
  let from_b = draws b 16 in
  Alcotest.(check (list int64)) "the original's draws leave the copy"
    from_a (List.filteri (fun i _ -> i < 8) from_b);
  Alcotest.(check (list int64)) "the copy's draws leave the original"
    (List.filteri (fun i _ -> i >= 8) from_b) (draws a 8)

module N = Support.Prng.Trunc_normal

(* MD5 of each table's columns, recorded when the sampler was introduced;
   the bench's [noisetables] pins the same bytes. *)
let noise_table_pins =
  [
    (0.5, "29aa238fcea9fc39866638f6dac8dc34");
    (3.0, "45641bf5cf5bacc3c38df59bff07ae4a");
    (4.0, "90d3c307bb6b14201687dbd876e92020");
    (7.5, "181fce8af4c52ee9fb7d9ec43ae53e5e");
    (60.0, "a5f75d528a465e8afe7071a3906bec4c");
  ]

let test_noise_table_digests () =
  List.iter
    (fun (s, pin) ->
      Alcotest.(check string) (Printf.sprintf "noise %g" s) pin (N.digest (N.table s)))
    noise_table_pins

(* Each table holds exactly its weights: a column of capacity 2^32 gives
   [keep] to its own value and the rest to its alias, so the columns' mass
   per value, over the 2^b columns, sums back to W_k 2^b. The weights
   themselves are the normal's bin masses P (k <= s N < k + 1), checked
   with libm's erfc: every W_k, k <> 0, is 2^32 P_k correctly rounded, and
   W_0 holds their rounding remainders. *)
let test_noise_tables_encode_weights () =
  let two32 = 1 lsl 32 in
  List.iter
    (fun (s, _) ->
      let tbl = N.table s in
      let weights = N.weights tbl and columns = N.columns tbl in
      let n = Array.length columns and values = List.length weights in
      Alcotest.(check bool)
        (Printf.sprintf "noise %g: 2^b columns for %d values" s values)
        true
        (n land (n - 1) = 0 && n >= values && n < 2 * max 2 values);
      Alcotest.(check int) (Printf.sprintf "noise %g: weights sum to 2^32" s) two32
        (List.fold_left (fun acc (_, w) -> acc + w) 0 weights);
      let mass = Hashtbl.create 64 in
      let find k = Option.value ~default:0 (Hashtbl.find_opt mass k) in
      let add k m = Hashtbl.replace mass k (m + find k) in
      Array.iter
        (fun (own, keep, alias) ->
          if keep < 0 || keep > two32 then Alcotest.failf "noise %g: threshold %d" s keep;
          add own keep;
          add alias (two32 - keep))
        columns;
      Hashtbl.iter
        (fun k m ->
          let w = Option.value ~default:0 (List.assoc_opt k weights) in
          if m <> w * n then
            Alcotest.failf "noise %g, value %d: column mass %d, W_k 2^b %d" s k m (w * n))
        mass;
      List.iter
        (fun (k, w) ->
          if w <= 0 then Alcotest.failf "noise %g, value %d: weight %d" s k w;
          let tail x = 0.5 *. Float.erfc (x /. s /. sqrt 2.0) in
          let a = float (abs k) in
          let p = if k = 0 then 1.0 -. (2.0 *. tail 1.0) else tail a -. tail (a +. 1.0) in
          let off = Float.abs (float w -. (p *. float two32)) in
          let bound = if k = 0 then 0.5 *. float (values - 1) else 0.5 +. 1e-6 in
          if off > bound then
            Alcotest.failf "noise %g, value %d: W_k %d, 2^32 P_k %.3f" s k w (p *. float two32))
        weights)
    noise_table_pins

(* Pearson's chi-square of 10^6 fixed-seed draws against W_k / 2^32, below
   the 0.1% critical value (Wilson-Hilferty). *)
let test_noise_chi_square () =
  List.iter
    (fun s ->
      let chi2, df = N.chi_square (N.table s) (Support.Prng.create 77) 1_000_000 in
      let d = float df in
      let v = 2.0 /. (9.0 *. d) in
      let critical = d *. ((1.0 -. v +. (3.09 *. sqrt v)) ** 3.0) in
      if chi2 >= critical then
        Alcotest.failf "noise %g: chi-square %.2f on %d df, critical %.2f" s chi2 df critical)
    [ 0.5; 3.0; 60.0 ]

let test_noise_table_rejects_levels () =
  List.iter
    (fun s ->
      Alcotest.check_raises (Printf.sprintf "noise %g" s)
        (Invalid_argument "Prng.Trunc_normal.table: level outside (0, 1024]") (fun () ->
          ignore (N.table s)))
    [ 0.0; -1.0; 1024.5; Float.nan; Float.infinity ]

(* [scatter] against the per-draw loop it replaced in [Scene.frame]'s
   noise: one [bits64] for the position, scaled by multiply-shift in native
   ints, then one [draw], [w h / 5] times. Every (index, value) pair and
   the final state must agree. *)
let prop_noise_scatter_matches_draws =
  QCheck.Test.make ~name:"noise scatter equals the per-draw loop" ~count:200
    QCheck.(
      make
        Gen.(
          let* seed = int_bound 1_000_000
          and* level =
            frequency
              [
                (3, oneofl (List.map fst noise_table_pins));
                (1, float_range 0.01 1024.0);
              ]
          and* w = frequency [ (9, int_range 1 128); (1, return 512) ]
          and* h = frequency [ (9, int_range 1 128); (1, return 512) ] in
          return (seed, level, w, h))
        ~print:(fun (seed, level, w, h) ->
          Printf.sprintf "seed=%d level=%h %dx%d" seed level w h))
    (fun (seed, level, w, h) ->
      let tbl = N.table level and n = w * h / 5 in
      let reference = Support.Prng.create seed in
      let want =
        List.init n (fun _ ->
            let r = Support.Prng.bits64 reference in
            let x = (Int64.to_int (Int64.shift_right_logical r 32) * w) lsr 32
            and y = ((Int64.to_int r land 0xFFFF_FFFF) * h) lsr 32 in
            ((y * w) + x, N.draw reference tbl))
      in
      let rng = Support.Prng.create seed in
      let got = ref [] in
      N.scatter rng tbl n ~width:w ~height:h (fun i d -> got := (i, d) :: !got);
      List.rev !got = want
      && Support.Prng.bits64 rng = Support.Prng.bits64 reference)

module Q = Support.Pqueue

(* Pops every entry, in order. *)
let drain q =
  let rec go acc = if Q.is_empty q then List.rev acc else go (Q.pop q :: acc) in
  go []

let test_pqueue_ordering () =
  let q = Q.create 0.0 in
  List.iter (fun p -> Q.push q p p) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  Alcotest.(check (list (float 0.0))) "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (drain q);
  Alcotest.(check (float 0.0)) "clock at the last priority" 5.0 (Q.clock q).Q.now

(* Pushes at the clock's instant go to the lane, a ring: interleaved
   pushes and pops wrap it before it grows, so growth must unwrap it in
   order. *)
let test_pqueue_lane_wraps_and_grows () =
  let q = Q.create (-1) in
  let next = ref 0 and expect = ref 0 in
  let push () = Q.push q 0.0 !next; incr next in
  let pop () =
    Alcotest.(check int) "first in, first out" !expect (Q.pop q);
    incr expect
  in
  for _ = 1 to 12 do push () done;
  for _ = 1 to 10 do pop () done;
  for _ = 1 to 40 do push () done;
  Alcotest.(check int) "length" 42 (Q.length q);
  Alcotest.(check (option int)) "peek" (Some !expect) (Q.peek q);
  while not (Q.is_empty q) do pop () done;
  Alcotest.(check int) "every value popped" !next !expect

let test_pqueue_fifo_ties () =
  let q = Q.create "" in
  List.iter (fun v -> Q.push q 1.0 v) [ "a"; "b"; "c" ];
  let first = Q.pop q in
  let second = Q.pop q in
  let third = Q.pop q in
  Alcotest.(check (list string)) "insertion order on ties" [ "a"; "b"; "c" ]
    [ first; second; third ]

let test_pqueue_peek_and_length () =
  let q = Q.create "" in
  Alcotest.(check bool) "empty" true (Q.is_empty q);
  Q.push q 2.0 "x";
  Q.push q 1.0 "y";
  Alcotest.(check int) "length" 2 (Q.length q);
  Alcotest.(check (option string)) "peek value" (Some "y") (Q.peek q);
  Alcotest.(check int) "peek does not remove" 2 (Q.length q);
  Alcotest.(check (float 0.0)) "peek does not move the clock" 0.0 (Q.clock q).Q.now

let test_pqueue_clear () =
  let q = Q.create 0 in
  Q.push q 1.0 1;
  ignore (Q.pop q);
  Q.push q 2.0 2;
  Q.clear q;
  Alcotest.(check bool) "cleared" true (Q.is_empty q);
  Alcotest.(check (float 0.0)) "clock back at 0" 0.0 (Q.clock q).Q.now;
  Alcotest.check_raises "pop empty" (Invalid_argument "Pqueue.pop: empty queue")
    (fun () -> ignore (Q.pop q))

(* The queue must not keep a value alive once it has given it back, nor
   after [clear], whether the value waited in the heap or in the lane. *)
let test_pqueue_releases_popped () =
  let q = Q.create Bytes.empty in
  let weak = Weak.create 4 in
  let push_boxed slot prio =
    let v = Bytes.make 16 'x' in
    Weak.set weak slot (Some v);
    Q.push q prio v
  in
  let pop () = ignore (Sys.opaque_identity (Q.pop q)) in
  push_boxed 0 1.0;
  pop ();
  Gc.full_major ();
  Alcotest.(check bool) "value popped off an emptied queue collected" false
    (Weak.check weak 0);
  push_boxed 1 1.0;
  push_boxed 2 2.0;
  pop ();
  Gc.full_major ();
  Alcotest.(check bool) "popped value collected" false (Weak.check weak 1);
  Alcotest.(check bool) "queued value kept" true (Weak.check weak 2);
  (* at the clock's instant: the lane *)
  push_boxed 3 1.0;
  pop ();
  Gc.full_major ();
  Alcotest.(check bool) "value popped off the lane collected" false
    (Weak.check weak 3);
  Q.clear q;
  Gc.full_major ();
  Alcotest.(check bool) "cleared value collected" false (Weak.check weak 2)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:200
    QCheck.(list (pair (float_bound_inclusive 1000.0) small_int))
    (fun entries ->
      let q = Q.create 0.0 in
      List.iter (fun (p, _) -> Q.push q p p) entries;
      let prios = drain q in
      List.sort compare prios = prios)

let prop_pqueue_preserves_multiset =
  QCheck.Test.make ~name:"pqueue pops exactly what was pushed" ~count:200
    QCheck.(list (pair (float_bound_inclusive 100.0) small_int))
    (fun entries ->
      let q = Q.create 0 in
      List.iter (fun (p, v) -> Q.push q p v) entries;
      let popped = List.sort compare (drain q) in
      let pushed = List.sort compare (List.map snd entries) in
      popped = pushed)

(* Event-order oracle: pushes at the clock's instant (the lane), at
   priorities on a coarse grid that the clock passes (earlier, equal and
   later ones, so ties are common), interleaved with pops. Every pop must
   return the entry first in (priority, push order) among those pushed and
   not yet popped, and the clock must be the largest priority popped. *)
type pq_op = Push_now | Push_at of int | Pop

let prop_pqueue_event_order =
  let op =
    QCheck.Gen.(
      frequency
        [ (3, return Push_now); (4, map (fun k -> Push_at k) (int_range 0 12)); (5, return Pop) ])
  in
  let print = function
    | Push_now -> "now"
    | Push_at k -> Printf.sprintf "at %d" k
    | Pop -> "pop"
  in
  QCheck.Test.make ~name:"pqueue pops heap and lane in (priority, push order)"
    ~count:500
    (QCheck.make ~print:(QCheck.Print.list print) (QCheck.Gen.list_size (QCheck.Gen.int_range 0 80) op))
    (fun ops ->
      let q = Q.create (-1) in
      (* the reference: (priority, push number) of every entry not yet popped *)
      let pending = ref [] and pushed = ref 0 and clock = ref 0.0 in
      let push prio =
        Q.push q prio !pushed;
        pending := (prio, !pushed) :: !pending;
        incr pushed
      in
      List.for_all
        (function
          | Push_now -> push (Q.clock q).Q.now; true
          | Push_at k -> push (0.5 *. float_of_int k); true
          | Pop -> (
              match List.sort compare !pending with
              | [] -> Q.is_empty q
              | ((prio, seq) as first) :: _ ->
                  pending := List.filter (fun e -> e <> first) !pending;
                  clock := Float.max !clock prio;
                  let got = Q.pop q in
                  got = seq && (Q.clock q).Q.now = !clock
                  && Q.length q = List.length !pending))
        ops)

(* --- busy-interval reservations --- *)

module I = Support.Intervals

(* A book holding [(earliest, duration)] reservations, made in order. *)
let book_of requests =
  let b = I.create () in
  List.iter (fun (earliest, duration) -> ignore (I.reserve b ~earliest ~duration)) requests;
  b

let test_intervals_empty () =
  Alcotest.(check (float 0.0)) "first fit on empty" 3.0
    (I.reserve (I.create ()) ~earliest:3.0 ~duration:2.0)

let test_intervals_gap_fill () =
  (* busy [0,2) and [5,7): a 2-long request at earliest 0 fits at 2 *)
  let busy = [ (0.0, 2.0); (5.0, 2.0) ] in
  Alcotest.(check (float 1e-12)) "backfills the gap" 2.0
    (I.reserve (book_of busy) ~earliest:0.0 ~duration:2.0);
  (* a 4-long request does not fit in the 3-long gap *)
  Alcotest.(check (float 1e-12)) "skips past" 7.0
    (I.reserve (book_of busy) ~earliest:0.0 ~duration:4.0)

let test_intervals_total () =
  Alcotest.(check (float 1e-12)) "total" 2.5
    (I.total (book_of [ (1.0, 2.0); (10.0, 0.5) ]))

let prop_intervals_stay_valid =
  QCheck.Test.make ~name:"reservations stay sorted and disjoint" ~count:200
    QCheck.(
      small_list
        (pair (float_bound_inclusive 50.0)
           (oneof [ always 0.0; float_bound_inclusive 5.0 ])))
    (fun requests -> I.valid (book_of requests))

let prop_intervals_no_overlap_with_request =
  QCheck.Test.make ~name:"granted slot never overlaps prior reservations" ~count:200
    QCheck.(pair (small_list (pair (float_bound_inclusive 50.0) (float_bound_inclusive 5.0)))
             (pair (float_bound_inclusive 50.0) (float_bound_inclusive 5.0)))
    (fun (requests, (earliest, duration)) ->
      let duration = duration +. 0.01 in
      let b = I.create () in
      let granted =
        List.map
          (fun (e, d) ->
            let d = d +. 0.01 in
            let s = I.reserve b ~earliest:e ~duration:d in
            (s, s +. d))
          requests
      in
      let start = I.reserve b ~earliest ~duration in
      start >= earliest
      && List.for_all
           (fun (s, e) -> start +. duration <= s +. 1e-9 || start >= e -. 1e-9)
           granted)

(* One request against a non-decreasing clock: the clock advances by
   [tick], then [earliest] is the clock plus [lead] ([anchor] 0), an
   earlier reservation's start (1) or stop (2), or that start less the
   duration, nudged by a multiple of 5e-16 (3): coincident requests and
   gaps within the first-fit tolerance come up often. Never earlier than
   the clock. Durations include zero and sub-tolerance lengths. *)
type request = { tick : float; anchor : int; pick : int; lead : float; duration : float }

let arb_requests =
  let open QCheck.Gen in
  let request =
    map
      (fun (tick, anchor, pick, (lead, duration)) -> { tick; anchor; pick; lead; duration })
      (quad
         (oneof [ return 0.0; float_bound_inclusive 3.0 ])
         (int_bound 3) (int_bound 60)
         (pair (float_bound_inclusive 4.0)
            (oneof [ return 0.0; return 1e-16; float_bound_inclusive 2.0 ])))
  in
  QCheck.make
    ~print:
      (QCheck.Print.list (fun r ->
           Printf.sprintf "{tick=%h; anchor=%d; pick=%d; lead=%h; duration=%h}"
             r.tick r.anchor r.pick r.lead r.duration))
    (list_size (int_bound 40) request)

(* The simulator's book, pruned against the clock before each reservation,
   and the static scheduler's, never pruned, must both grant the starts
   the list reference grants and report its total, bit for bit. *)
let prop_intervals_pruned_book =
  QCheck.Test.make ~name:"pruned book equals the full list" ~count:300 arb_requests
    (fun requests ->
      let module L = Intervals_list in
      let bits = Int64.bits_of_float in
      let full = I.create () and pruned = I.create () in
      let rec go clock list = function
        | [] -> true
        | r :: rest ->
            let clock = clock +. r.tick in
            let anchor =
              match list with
              | [] -> clock +. r.lead
              | _ -> (
                  let s, e = List.nth list (r.pick mod List.length list) in
                  match r.anchor with
                  | 0 -> clock +. r.lead
                  | 1 -> s
                  | 2 -> e
                  | _ -> s -. r.duration +. (float_of_int ((r.pick mod 7) - 3) *. 5e-16))
            in
            let earliest = Float.max clock anchor and duration = r.duration in
            let start, list = L.reserve list ~earliest ~duration in
            let start_full = I.reserve full ~earliest ~duration in
            I.prune pruned ~upto:clock;
            let start_pruned = I.reserve pruned ~earliest ~duration in
            let total = bits (L.total list) in
            bits start = bits start_full
            && bits start = bits start_pruned
            && total = bits (I.total full)
            && total = bits (I.total pruned)
            && go clock list rest
      in
      go 0.0 L.empty requests)

(* A backfilling request, as the static scheduler makes them: [earliest]
   is free ([anchor] 0), an earlier reservation's start (1) or stop (2),
   that start less the duration nudged by a multiple of 5e-16 (3), or the
   book's maximum stop (4), its [Float.pred] (5) or its [Float.succ] (6):
   the boundary of the tail fit. No clock, so requests go back in time. *)
type backfill = { anchor : int; pick : int; at : float; length : float }

let arb_backfills =
  let open QCheck.Gen in
  let request =
    map
      (fun (anchor, pick, at, length) -> { anchor; pick; at; length })
      (quad (int_bound 6) (int_bound 60) (float_bound_inclusive 20.0)
         (oneof [ return 0.0; return 1e-16; float_bound_inclusive 3.0 ]))
  in
  QCheck.make
    ~print:
      (QCheck.Print.list (fun r ->
           Printf.sprintf "{anchor=%d; pick=%d; at=%h; length=%h}" r.anchor
             r.pick r.at r.length))
    (list_size (int_bound 40) request)

(* The unpruned book must grant the starts the list reference grants and
   report its total, bit for bit, while requests backfill, land on the
   tail-fit boundary or just either side of it; and after [clear], the
   same requests must get the same answers, as from a fresh book. *)
let prop_intervals_backfill =
  QCheck.Test.make ~name:"backfilling book equals the full list" ~count:300
    arb_backfills (fun requests ->
      let module L = Intervals_list in
      let bits = Int64.bits_of_float in
      let rec go b list = function
        | [] -> bits (I.total b) = bits (L.total list)
        | r :: rest ->
            let earliest =
              match list with
              | [] -> r.at
              | _ -> (
                  let s, e = List.nth list (r.pick mod List.length list) in
                  let hi = List.fold_left (fun m (_, e) -> Float.max m e) 0.0 list in
                  match r.anchor with
                  | 0 -> r.at
                  | 1 -> s
                  | 2 -> e
                  | 3 ->
                      Float.max 0.0
                        (s -. r.length +. (float_of_int ((r.pick mod 7) - 3) *. 5e-16))
                  | 4 -> hi
                  | 5 -> Float.max 0.0 (Float.pred hi)
                  | _ -> Float.succ hi)
            in
            let start, list = L.reserve list ~earliest ~duration:r.length in
            bits start = bits (I.reserve b ~earliest ~duration:r.length)
            && bits (I.total b) = bits (L.total list)
            && go b list rest
      in
      let b = I.create () in
      go b L.empty requests
      &&
      (I.clear b;
       go b L.empty requests))

(* --- JSON escapes --- *)

module Json = Support.Json

let json_str s =
  match Json.parse s with
  | Ok (Json.Str v) -> v
  | Ok _ -> Alcotest.failf "parse %S: not a string" s
  | Error m -> Alcotest.failf "parse %S failed: %s" s m

let test_json_short_escapes () =
  Alcotest.(check string) "all eight short escapes"
    "\"\\/\b\012\n\r\t"
    (json_str {|"\"\\\/\b\f\n\r\t"|})

let test_json_unicode_escapes () =
  Alcotest.(check string) "ASCII" "A" (json_str {|"\u0041"|});
  Alcotest.(check string) "2-byte UTF-8" "\xc3\xa9" (json_str {|"\u00e9"|});
  Alcotest.(check string) "3-byte UTF-8" "\xe2\x82\xac" (json_str {|"\u20ac"|});
  Alcotest.(check string) "hex case-insensitive" "\xe2\x82\xac"
    (json_str {|"\u20AC"|})

let test_json_surrogate_pair () =
  (* U+1F600 GRINNING FACE: one astral code point, four UTF-8 bytes *)
  Alcotest.(check string) "astral code point decodes" "\xf0\x9f\x98\x80"
    (json_str {|"\ud83d\ude00"|})

let test_json_bad_escapes () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parse %S should be rejected" s)
    [
      {|"\ud83d"|};          (* unpaired high surrogate *)
      {|"\ud83dx"|};         (* high surrogate not followed by \u *)
      {|"\ud83dA"|}; (* high surrogate paired with a non-low unit *)
      {|"\ude00"|};          (* lone low surrogate *)
      {|"\u12g4"|};          (* bad hex digit *)
      {|"\u123"|};           (* truncated escape *)
      {|"\q"|};              (* unknown escape *)
    ]

let test_json_printer_escapes () =
  Alcotest.(check string) "short escapes plus \\u00XX fallback"
    {|"\n\t\r\b\f\u0001"|}
    (Json.to_string (Json.Str "\n\t\r\b\012\001"))

let test_json_roundtrip_strings () =
  let v = Json.Obj [ ("s", Json.Str "a\n\t\r\b\012\000\031b\xc3\xa9") ] in
  Alcotest.(check bool) "parse (to_string v) = Ok v" true
    (Json.parse (Json.to_string v) = Ok v)

(* Floats of every class: random bit patterns reach nan, both
   infinities, -0.0 and subnormals; the list pins the edge cases. *)
let gen_any_float =
  QCheck.Gen.(
    frequency
      [
        (2, float);
        (2, map Int64.float_of_bits int64);
        ( 1,
          oneofl
            [
              Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0;
              4.9e-324; -2.2250738585072009e-308; Float.max_float;
              -.Float.max_float; 1e15; -1e15; 0.5; 2.5; -1.0005;
            ] );
      ])

let gen_json =
  QCheck.Gen.(
    let key = string_size ~gen:char (int_bound 6) in
    let leaf =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun f -> Json.Num f) gen_any_float;
          map2 (fun d f -> Json.Fixed (d, f)) (int_bound 12) gen_any_float;
          map (fun s -> Json.Str s) key;
        ]
    in
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun xs -> Json.Arr xs) (list_size (int_bound 4) (self (n - 1))));
                 ( 1,
                   map
                     (fun kvs -> Json.Obj kvs)
                     (list_size (int_bound 4) (pair key (self (n - 1)))) );
               ]))

(* What a strict reader gets back: non-finite numbers as null, every
   other number as the value of its printed text. *)
let rec reread = function
  | (Json.Num f | Json.Fixed (_, f)) when not (Float.is_finite f) -> Json.Null
  | (Json.Num _ | Json.Fixed _) as n -> Json.Num (float_of_string (Json.to_string n))
  | Json.Arr xs -> Json.Arr (List.map reread xs)
  | Json.Obj kvs -> Json.Obj (List.map (fun (k, v) -> (k, reread v)) kvs)
  | v -> v

let prop_json_always_parses =
  QCheck.Test.make ~name:"printed JSON always parses back" ~count:500
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.parse (Json.to_string v) = Ok (reread v))

let test_json_nesting_bound () =
  let nested d = String.make d '[' ^ String.make d ']' in
  Alcotest.(check bool) "512 deep parses" true (Result.is_ok (Json.parse (nested 512)));
  Alcotest.(check bool) "513 deep is an error" true
    (Result.is_error (Json.parse (nested 513)));
  (* a daemon frame may be this long; the reader stops at the bound *)
  Alcotest.(check bool) "a million brackets are an error" true
    (Result.is_error (Json.parse (String.make 1_000_000 '[')))

(* Untrusted bytes: random strings, and soups of JSON tokens that reach
   past the first character. The reader answers Ok or Error, never raises. *)
let gen_json_bytes =
  QCheck.Gen.(
    let token =
      oneofl
        [
          "{"; "}"; "["; "]"; ","; ":"; "\""; "\\"; "\\u"; "\\uD83D";
          "\\uDC00"; "\\u00e9"; "\\x"; "true"; "fals"; "null"; "1e300";
          "-"; "-0"; "0.5e"; "1e-400"; "."; " "; "\n"; "\"op\""; "\"run\"";
          "\xff"; "\000";
        ]
    in
    frequency
      [
        (1, string_size ~gen:char (int_bound 64));
        (2, map (String.concat "") (list_size (int_bound 40) token));
      ])

let prop_json_parse_total =
  QCheck.Test.make ~name:"parse answers Ok or Error on any bytes" ~count:2000
    (QCheck.make ~print:String.escaped gen_json_bytes)
    (fun s ->
      match Json.parse s with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let prop_json_fixed_is_printf =
  QCheck.Test.make ~name:"finite Fixed prints as %.*f, int as %d" ~count:500
    QCheck.(
      triple (int_bound 17)
        (make ~print:string_of_float gen_any_float)
        (int_range (-(1 lsl 53)) (1 lsl 53)))
    (fun (d, f, n) ->
      QCheck.assume (Float.is_finite f);
      Json.to_string (Json.Fixed (d, f)) = Printf.sprintf "%.*f" d f
      && Json.to_string (Json.int n) = string_of_int n)

let test_json_non_finite () =
  List.iter
    (fun f ->
      Alcotest.(check string) (string_of_float f) "[null,null]"
        (Json.to_string (Json.Arr [ Json.Num f; Json.Fixed (3, f) ])))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* --- baseline gate --- *)

module Baseline = Support.Baseline

let entry fields =
  Json.Arr [ Json.Obj (("experiment", Json.Str "e") :: fields) ]

let compare_one ?exact ?tolerance b c =
  Baseline.compare ?exact ?tolerance ~baseline:(entry b) ~current:(entry c) ()

let test_baseline_exact_bit_pattern () =
  let v = compare_one ~exact:[ "messages" ]
      [ ("messages", Json.Num 120.0) ] [ ("messages", Json.Num 121.0) ]
  in
  Alcotest.(check bool) "drift fails" false (Baseline.ok v);
  (match v.Baseline.failures with
  | [ m ] ->
      Alcotest.(check bool) "message names the bit patterns" true
        (Astring.String.is_infix ~affix:"bit patterns 0x" m);
      Alcotest.(check bool) "message says deterministic" true
        (Astring.String.is_infix ~affix:"deterministic field drifted" m)
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs));
  (* identity passes, including identical NaNs... *)
  let nan = Json.Num Float.nan in
  Alcotest.(check bool) "identical NaN passes" true
    (Baseline.ok
       (compare_one ~exact:[ "x" ] [ ("x", nan) ] [ ("x", nan) ]));
  (* ...while an exact 0. vs -0. flip fails even though (=) says equal *)
  Alcotest.(check bool) "0. vs -0. fails for exact fields" false
    (Baseline.ok
       (compare_one ~exact:[ "x" ]
          [ ("x", Json.Num 0.0) ]
          [ ("x", Json.Num (-0.0)) ]))

let test_baseline_field_shape () =
  Alcotest.(check bool) "a missing field fails" false
    (Baseline.ok (compare_one [ ("p99", Json.Num 1.0) ] []));
  Alcotest.(check bool) "a Num->Str shape change fails" false
    (Baseline.ok
       (compare_one [ ("p99", Json.Num 1.0) ] [ ("p99", Json.Str "fast") ]))

let test_baseline_tolerance () =
  let near = [ ("t", Json.Num 1.0) ], [ ("t", Json.Num 1.005) ] in
  let far = [ ("t", Json.Num 1.0) ], [ ("t", Json.Num 1.2) ] in
  Alcotest.(check bool) "within tolerance" true
    (Baseline.ok (compare_one (fst near) (snd near)));
  Alcotest.(check bool) "beyond tolerance" false
    (Baseline.ok (compare_one (fst far) (snd far)))

(* --- %{key} templating --- *)

module Template = Support.Template

let test_template_substitutes_every_occurrence () =
  Alcotest.(check string) "both occurrences expand"
    "out/8/trace-8.json"
    (Template.subst ~key:"procs" ~value:"8" "out/%{procs}/trace-%{procs}.json");
  Alcotest.(check string) "no template, no change" "plain.json"
    (Template.subst ~key:"procs" ~value:"8" "plain.json");
  Alcotest.(check string) "adjacent occurrences" "1212"
    (Template.subst ~key:"p" ~value:"12" "%{p}%{p}")

let test_template_no_rescan () =
  (* a value containing the pattern must not be re-expanded *)
  Alcotest.(check string) "substituted text is not rescanned" "%{p}!"
    (Template.subst ~key:"p" ~value:"%{p}" "%{p}!")

let test_template_other_keys_untouched () =
  Alcotest.(check string) "different key left alone" "a-%{other}-4"
    (Template.subst ~key:"procs" ~value:"4" "a-%{other}-%{procs}");
  Alcotest.(check bool) "mem finds the key" true
    (Template.mem ~key:"procs" "x/%{procs}");
  Alcotest.(check bool) "mem rejects absent key" false
    (Template.mem ~key:"procs" "x/%{other}")

let () =
  Alcotest.run "support"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int rejects bound <= 0" `Quick test_prng_int_rejects_nonpositive;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "gaussian moments" `Slow test_prng_gaussian_moments;
          Alcotest.test_case "shuffle is a permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "golden streams" `Quick test_prng_golden;
          Alcotest.test_case "copy independent" `Quick test_prng_copy_independent;
          Alcotest.test_case "noise table digests pinned" `Quick test_noise_table_digests;
          Alcotest.test_case "noise tables encode their weights" `Quick
            test_noise_tables_encode_weights;
          Alcotest.test_case "noise chi-square" `Quick test_noise_chi_square;
          Alcotest.test_case "noise levels outside (0, 1024] rejected" `Quick
            test_noise_table_rejects_levels;
          QCheck_alcotest.to_alcotest prop_noise_scatter_matches_draws;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "lane wraps and grows" `Quick test_pqueue_lane_wraps_and_grows;
          Alcotest.test_case "peek and length" `Quick test_pqueue_peek_and_length;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          Alcotest.test_case "releases popped values" `Quick
            test_pqueue_releases_popped;
          QCheck_alcotest.to_alcotest prop_pqueue_sorted;
          QCheck_alcotest.to_alcotest prop_pqueue_preserves_multiset;
          QCheck_alcotest.to_alcotest prop_pqueue_event_order;
        ] );
      ( "intervals",
        [
          Alcotest.test_case "empty" `Quick test_intervals_empty;
          Alcotest.test_case "gap fill" `Quick test_intervals_gap_fill;
          Alcotest.test_case "total" `Quick test_intervals_total;
          QCheck_alcotest.to_alcotest prop_intervals_stay_valid;
          QCheck_alcotest.to_alcotest prop_intervals_no_overlap_with_request;
          QCheck_alcotest.to_alcotest prop_intervals_pruned_book;
          QCheck_alcotest.to_alcotest prop_intervals_backfill;
        ] );
      ( "json",
        [
          Alcotest.test_case "short escapes" `Quick test_json_short_escapes;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "surrogate pair" `Quick test_json_surrogate_pair;
          Alcotest.test_case "bad escapes rejected" `Quick test_json_bad_escapes;
          Alcotest.test_case "printer escapes" `Quick test_json_printer_escapes;
          Alcotest.test_case "string round-trip" `Quick
            test_json_roundtrip_strings;
          Alcotest.test_case "non-finite numbers print null" `Quick
            test_json_non_finite;
          QCheck_alcotest.to_alcotest prop_json_always_parses;
          QCheck_alcotest.to_alcotest prop_json_fixed_is_printf;
          Alcotest.test_case "nesting bound" `Quick test_json_nesting_bound;
          QCheck_alcotest.to_alcotest prop_json_parse_total;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "exact fields compare by bit pattern" `Quick
            test_baseline_exact_bit_pattern;
          Alcotest.test_case "missing or reshaped fields fail" `Quick
            test_baseline_field_shape;
          Alcotest.test_case "tolerance" `Quick test_baseline_tolerance;
        ] );
      ( "template",
        [
          Alcotest.test_case "every occurrence substituted" `Quick
            test_template_substitutes_every_occurrence;
          Alcotest.test_case "no rescan of substituted text" `Quick
            test_template_no_rescan;
          Alcotest.test_case "other keys untouched" `Quick
            test_template_other_keys_untouched;
        ] );
    ]
