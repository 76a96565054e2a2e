(* Conformance of the stateful df farm family against the declarative
   sequential oracle (Skel.Sem): for every state-access mode, the parallel
   engine's output over random worker counts, item lists and frame counts
   must equal the closure-tree oracle's. The accumulation function is
   deliberately non-commutative and compute costs are value-dependent, so
   workers finish out of sequence order — any merge-order or routing slip
   in the engine shows up as a value mismatch, not a flake. Like
   test_specs, the whole matrix also runs as one farmed sweep under
   SKIPPER_JOBS. *)

module V = Skel.Value
module Dp = Support.Domain_pool

(* Non-commutative fold: 31*z + y. Order sensitivity is the point. *)
let mix z y = (31 * z) + y

let make_table () =
  let table = Skel.Funtable.create () in
  let reg = Skel.Funtable.register table in
  (* value-dependent cost shuffles worker completion order *)
  let cost_of x = 1_000.0 +. float_of_int (137 * x mod 7919) in
  reg "comp" ~arity:1
    ~cost:(fun v -> cost_of (V.to_int v))
    (fun v -> V.Int ((2 * V.to_int v) + 1));
  reg "comp_ro" ~arity:1
    ~cost:(fun v ->
      match v with V.Tuple [ _; x ] -> cost_of (V.to_int x) | _ -> 1_000.0)
    (fun v ->
      match v with
      | V.Tuple [ env; x ] -> V.Int ((V.to_int env * V.to_int x) + 1)
      | _ -> raise (V.Type_error "comp_ro expects (env, x)"));
  (* stateful computes thread 31*s + x — partition/resource order-sensitive *)
  let threaded name v =
    match v with
    | V.Tuple [ s; x ] ->
        let s' = mix (V.to_int s) (V.to_int x) in
        V.Tuple [ V.Int s'; V.Int s' ]
    | _ -> raise (V.Type_error (name ^ " expects (state, x)"))
  in
  reg "comp_st" ~arity:1
    ~cost:(fun v ->
      match v with V.Tuple [ _; x ] -> cost_of (V.to_int x) | _ -> 1_000.0)
    (threaded "comp_st");
  reg "acc" ~arity:2
    ~cost:(fun _ -> 100.0)
    (fun v ->
      let z, y = V.to_pair v in
      V.Int (mix (V.to_int z) (V.to_int y)));
  table

let comp_for = function
  | Skel.Ir.Stateless | Skel.Ir.Accumulator -> "comp"
  | Skel.Ir.Read_only -> "comp_ro"
  | Skel.Ir.Owner | Skel.Ir.Resource -> "comp_st"

let init_for ~nworkers = function
  | Skel.Ir.Stateless | Skel.Ir.Accumulator -> V.Int 1
  | Skel.Ir.Read_only -> V.Tuple [ V.Int 3; V.Int 1 ]
  | Skel.Ir.Owner ->
      V.Tuple
        [ V.List (List.init nworkers (fun k -> V.Int (100 * (k + 1)))); V.Int 1 ]
  | Skel.Ir.Resource -> V.Tuple [ V.Int 7; V.Int 1 ]

type params = { mode : Skel.Ir.state_mode; nworkers : int; nitems : int; frames : int }

let program p =
  Skel.Ir.program ~frames:p.frames
    ("farm_" ^ Skel.Ir.state_mode_name p.mode)
    (Skel.Ir.Df
       {
         nworkers = p.nworkers;
         comp = comp_for p.mode;
         acc = "acc";
         init = init_for ~nworkers:p.nworkers p.mode;
         state = p.mode;
       })

let input_of p = V.List (List.init p.nitems (fun i -> V.Int ((5 * i) + 2)))

(* One self-contained equivalence job: compile, run both paths, compare.
   Returns (oracle, parallel) so callers can assert or count. *)
let run_both p =
  let table = make_table () in
  let prog = program p in
  (match Skel.Ir.validate table prog with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: invalid program: %s" prog.Skel.Ir.name m);
  let g = Procnet.Expand.expand table prog in
  let arch = Archi.ring (p.nworkers + 1) in
  let input = input_of p in
  let r =
    Executive.run ~table ~arch
      ~placement:(Syndex.Place.canonical g arch)
      ~graph:g ~frames:p.frames ~input ()
  in
  (Skel.Sem.run table prog input, r)

let check_equiv p =
  let oracle, r = run_both p in
  Alcotest.(check bool)
    (Printf.sprintf "%s completes" (Skel.Ir.state_mode_name p.mode))
    true
    (r.Executive.outcome = Executive.Completed);
  if not (V.equal oracle r.Executive.value) then
    Alcotest.failf "%s w=%d n=%d f=%d: oracle %s, parallel %s"
      (Skel.Ir.state_mode_name p.mode)
      p.nworkers p.nitems p.frames (V.to_string oracle)
      (V.to_string r.Executive.value);
  (* per-frame outputs must match the streamed oracle too *)
  let stream = Skel.Sem.run_stream (make_table ()) (program p) (input_of p) in
  Alcotest.(check int)
    "frame count" p.frames
    (List.length r.Executive.outputs);
  List.iteri
    (fun i (expect, got) ->
      if not (V.equal expect got) then
        Alcotest.failf "%s frame %d: oracle %s, parallel %s"
          (Skel.Ir.state_mode_name p.mode)
          i (V.to_string expect) (V.to_string got))
    (List.combine stream r.Executive.outputs)

let modes =
  [
    Skel.Ir.Stateless; Skel.Ir.Read_only; Skel.Ir.Owner; Skel.Ir.Accumulator;
    Skel.Ir.Resource;
  ]

(* ------------------------------------------------------------------ *)
(* qcheck properties                                                    *)

let gen_params mode =
  QCheck.Gen.(
    map
      (fun (nworkers, nitems, frames) -> { mode; nworkers; nitems; frames })
      (tup3 (int_range 1 4) (int_range 0 12) (int_range 1 3)))

let print_params p =
  Printf.sprintf "{%s; workers=%d; items=%d; frames=%d}"
    (Skel.Ir.state_mode_name p.mode)
    p.nworkers p.nitems p.frames

let prop_mode mode =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "df_%s parallel == sequential oracle"
         (Skel.Ir.state_mode_name mode))
    ~count:15
    (QCheck.make ~print:print_params (gen_params mode))
    (fun p ->
      let oracle, r = run_both p in
      r.Executive.outcome = Executive.Completed
      && V.equal oracle r.Executive.value)

(* ------------------------------------------------------------------ *)
(* Targeted discipline pins                                            *)

(* Accumulator: the carry makes frame f+1 fold on top of frame f. With the
   non-commutative acc the only way the engine can agree with the oracle is
   a sequence-order merge every frame plus an exact cross-frame carry. *)
let test_accumulator_carry () =
  let p = { mode = Skel.Ir.Accumulator; nworkers = 3; nitems = 5; frames = 3 } in
  let oracle, r = run_both p in
  Alcotest.(check bool) "parallel == oracle" true (V.equal oracle r.Executive.value);
  (* the streamed frames really differ — the state is not reset per frame *)
  match r.Executive.outputs with
  | a :: b :: _ ->
      Alcotest.(check bool) "frame outputs differ (carry visible)" false
        (V.equal a b)
  | _ -> Alcotest.fail "expected at least two frames"

(* Owner: task i must be computed against partition i mod nworkers, and
   only that partition's state. With partition seeds 100k the expected
   value is computable directly; a single misrouted task changes it. *)
let test_owner_partition_routing () =
  let p = { mode = Skel.Ir.Owner; nworkers = 3; nitems = 9; frames = 1 } in
  let states = Array.init p.nworkers (fun k -> 100 * (k + 1)) in
  let items = List.init p.nitems (fun i -> (5 * i) + 2) in
  let expected, _ =
    List.fold_left
      (fun (z, i) x ->
        let k = i mod p.nworkers in
        states.(k) <- mix states.(k) x;
        (mix z states.(k), i + 1))
      (1, 0) items
  in
  let _, r = run_both p in
  Alcotest.(check bool) "owner routing fixed by i mod nworkers" true
    (V.equal (V.Int expected) r.Executive.value)

(* Resource: strictly serialised threading in sequence order. *)
let test_resource_serialisation () =
  let p = { mode = Skel.Ir.Resource; nworkers = 4; nitems = 8; frames = 2 } in
  let res = ref 7 in
  let items = List.init p.nitems (fun i -> (5 * i) + 2) in
  let frame () =
    List.fold_left
      (fun z x ->
        res := mix !res x;
        mix z !res)
      1 items
  in
  let _ = frame () in
  let expected = frame () in
  let _, r = run_both p in
  Alcotest.(check bool) "resource threads serially across both frames" true
    (V.equal (V.Int expected) r.Executive.value)

(* Read-only: the env is broadcast once and every task sees it. *)
let test_readonly_env () =
  let p = { mode = Skel.Ir.Read_only; nworkers = 4; nitems = 7; frames = 2 } in
  let items = List.init p.nitems (fun i -> (5 * i) + 2) in
  let expected =
    List.fold_left (fun z x -> mix z ((3 * x) + 1)) 1 items
  in
  let _, r = run_both p in
  Alcotest.(check bool) "every task computed against the broadcast env" true
    (V.equal (V.Int expected) r.Executive.value)

(* ------------------------------------------------------------------ *)
(* The full mode matrix as one farmed sweep (SKIPPER_JOBS parallelism)  *)

let test_matrix_through_pool () =
  let jobs = Pool_env.jobs () in
  let cases =
    List.concat_map
      (fun mode ->
        List.map
          (fun (nworkers, nitems, frames) -> { mode; nworkers; nitems; frames })
          [ (1, 4, 2); (3, 9, 2); (4, 12, 3) ])
      modes
  in
  Dp.run ~jobs (List.map (fun p () -> check_equiv p) cases)
  |> List.iter (fun () -> ())

let () =
  Alcotest.run "state_farm"
    [
      ("oracle-equivalence", List.map (fun m -> QCheck_alcotest.to_alcotest (prop_mode m)) modes);
      ( "disciplines",
        [
          Alcotest.test_case "accumulator carry" `Quick test_accumulator_carry;
          Alcotest.test_case "owner partition routing" `Quick
            test_owner_partition_routing;
          Alcotest.test_case "resource serialisation" `Quick
            test_resource_serialisation;
          Alcotest.test_case "readonly env broadcast" `Quick test_readonly_env;
        ] );
      ( "pooled",
        [
          Alcotest.test_case "mode matrix as a farmed sweep" `Quick
            test_matrix_through_pool;
        ] );
    ]
