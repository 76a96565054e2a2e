(* Tests for sequential emulation of the skeletal IR. *)

module V = Skel.Value
module Ir = Skel.Ir

let value_testable = Alcotest.testable V.pp V.equal

let arith_table () =
  Skel.Funtable.of_list
    [
      ("double", 1, (fun v -> V.Int (2 * V.to_int v)), fun _ -> 10.0);
      ("inc", 1, (fun v -> V.Int (V.to_int v + 1)), fun _ -> 10.0);
      ( "add",
        2,
        (fun v ->
          let a, b = V.to_pair v in
          V.Int (V.to_int a + V.to_int b)),
        fun _ -> 10.0 );
      ( "halves",
        2,
        (fun v ->
          match v with
          | V.Tuple [ V.Int n; V.List xs ] ->
              (* split into n chunks, padding the last *)
              let len = List.length xs in
              let chunk = max 1 ((len + n - 1) / n) in
              V.List
                (List.init n (fun i ->
                     V.List (List.filteri (fun j _ -> j / chunk = i) xs)))
          | _ -> raise (V.Type_error "halves")),
        fun _ -> 10.0 );
      ( "sum_list",
        1,
        (fun v -> V.Int (List.fold_left (fun acc x -> acc + V.to_int x) 0 (V.to_list v))),
        fun _ -> 10.0 );
      ( "sum_all",
        1,
        (fun v -> V.Int (List.fold_left (fun acc x -> acc + V.to_int x) 0 (V.to_list v))),
        fun _ -> 10.0 );
      ( "split_or_value",
        1,
        (fun v ->
          let n = V.to_int v in
          if n > 3 then
            V.Tuple [ V.List [ V.Int (n / 2); V.Int (n - (n / 2)) ]; V.Int 0 ]
          else V.Tuple [ V.List []; V.Int n ]),
        fun _ -> 10.0 );
      ("frame_input", 2, (fun v -> let x, i = V.to_pair v in V.pair x i), fun _ -> 1.0);
      ( "loop_step",
        1,
        (fun v ->
          let st, x = V.to_pair v in
          V.Tuple [ V.Int (V.to_int st + 1); V.pair st x ]),
        fun _ -> 1.0 );
      ("out_id", 1, Fun.id, fun _ -> 1.0);
    ]

let test_seq () =
  let t = arith_table () in
  Alcotest.(check value_testable) "seq" (V.Int 10)
    (Skel.Sem.eval_stage t (Ir.Seq "double") (V.Int 5))

let test_pipe () =
  let t = arith_table () in
  Alcotest.(check value_testable) "pipe" (V.Int 11)
    (Skel.Sem.eval_stage t (Ir.Pipe [ Ir.Seq "double"; Ir.Seq "inc" ]) (V.Int 5));
  Alcotest.(check value_testable) "empty pipe is identity" (V.Int 5)
    (Skel.Sem.eval_stage t (Ir.Pipe []) (V.Int 5))

let test_df () =
  let t = arith_table () in
  let stage = Ir.Df { nworkers = 3; comp = "double"; acc = "add"; init = V.Int 100; state = Ir.Stateless } in
  Alcotest.(check value_testable) "df" (V.Int 112)
    (Skel.Sem.eval_stage t stage (V.list [ V.Int 1; V.Int 2; V.Int 3 ]))

let test_df_rejects_non_list () =
  let t = arith_table () in
  let stage = Ir.Df { nworkers = 2; comp = "double"; acc = "add"; init = V.Int 0; state = Ir.Stateless } in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Skel.Sem.eval_stage t stage (V.Int 1));
       false
     with Skel.Sem.Emulation_error _ -> true)

let test_scm () =
  let t = arith_table () in
  let stage =
    Ir.Scm { nparts = 2; split = "halves"; compute = "sum_list"; merge = "sum_all" }
  in
  Alcotest.(check value_testable) "scm sums" (V.Int 10)
    (Skel.Sem.eval_stage t stage (V.list [ V.Int 1; V.Int 2; V.Int 3; V.Int 4 ]))

let test_tf () =
  let t = arith_table () in
  let stage =
    Ir.Tf { nworkers = 2; work = "split_or_value"; acc = "add"; init = V.Int 0 }
  in
  (* 10 splits into 5+5, each into 2+3 -> leaves 2,3,2,3 *)
  Alcotest.(check value_testable) "tf" (V.Int 10)
    (Skel.Sem.eval_stage t stage (V.list [ V.Int 10 ]))

let test_itermem_run () =
  let t = arith_table () in
  let prog =
    Ir.program ~frames:3 "loop"
      (Ir.Itermem
         { input = "frame_input"; loop = Ir.Seq "loop_step"; output = "out_id"; init = V.Int 0 })
  in
  match Skel.Sem.run t prog (V.Str "cam") with
  | V.Tuple [ V.Int final; V.List outs ] ->
      Alcotest.(check int) "final state" 3 final;
      Alcotest.(check int) "outputs" 3 (List.length outs);
      (* Output i pairs state i with the input pair (cam, i). *)
      (match List.nth outs 2 with
      | V.Tuple [ V.Int st; V.Tuple [ V.Str "cam"; V.Int i ] ] ->
          Alcotest.(check int) "state at frame 2" 2 st;
          Alcotest.(check int) "frame index" 2 i
      | v -> Alcotest.failf "unexpected output %s" (V.to_string v))
  | v -> Alcotest.failf "unexpected result %s" (V.to_string v)

let test_itermem_rejected_in_stage () =
  let t = arith_table () in
  let stage =
    Ir.Itermem { input = "frame_input"; loop = Ir.Seq "inc"; output = "out_id"; init = V.Unit }
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Skel.Sem.eval_stage t stage V.Unit);
       false
     with Skel.Sem.Emulation_error _ -> true)

let test_run_plain_program () =
  let t = arith_table () in
  let prog = Ir.program "p" (Ir.Seq "inc") in
  Alcotest.(check value_testable) "plain run" (V.Int 8) (Skel.Sem.run t prog (V.Int 7))

let prop_df_matches_skeleton =
  QCheck.Test.make ~name:"IR df matches the declarative combinator" ~count:200
    QCheck.(pair (int_range 1 8) (small_list small_signed_int))
    (fun (n, xs) ->
      let t = arith_table () in
      let stage = Ir.Df { nworkers = n; comp = "double"; acc = "add"; init = V.Int 0; state = Ir.Stateless } in
      let via_ir =
        Skel.Sem.eval_stage t stage (V.list (List.map (fun x -> V.Int x) xs))
      in
      let direct = Skel.Skeletons.df n (fun x -> 2 * x) ( + ) 0 xs in
      V.equal via_ir (V.Int direct))


let test_run_cost_accounts_cycles () =
  let t = arith_table () in
  let prog = Ir.program "p" (Ir.Pipe [ Ir.Seq "double"; Ir.Seq "inc" ]) in
  let v, cycles = Skel.Sem.run_cost t prog (V.Int 5) in
  Alcotest.(check value_testable) "value" (V.Int 11) v;
  Alcotest.(check (float 0.001)) "two calls at 10 cycles" 20.0 cycles

let test_eval_stage_cost_df () =
  let t = arith_table () in
  let stage = Ir.Df { nworkers = 3; comp = "double"; acc = "add"; init = V.Int 0; state = Ir.Stateless } in
  let v, cycles =
    Skel.Sem.eval_stage_cost t stage (V.list [ V.Int 1; V.Int 2; V.Int 3 ])
  in
  Alcotest.(check value_testable) "value" (V.Int 12) v;
  (* 3 comps + 3 accs, each 10 cycles *)
  Alcotest.(check (float 0.001)) "cycles" 60.0 cycles

(* ------------------------------------------------------------------ *)
(* Call-order pins                                                     *)

(* Cost models whose values vary with the argument, so the float sum of
   the cycles a run charges depends on the order of the calls: these pins
   hold the folds to comp then acc, item by item, in list order (and, for
   tf, work before acc), in Sem and in the serialised farms alike. *)
let order_table () =
  let int_cost k v = 0.1 *. float_of_int (k + abs (V.to_int v)) in
  let pair_cost v =
    match v with
    | V.Tuple [ V.Int a; V.Int b ] -> sqrt (float_of_int (abs a + 2)) +. (0.01 *. float_of_int b)
    | _ -> 0.3
  in
  Skel.Funtable.of_list
    [
      ("sq", 1, (fun v -> V.Int ((V.to_int v * V.to_int v) + 1)), int_cost 7);
      ( "addq",
        2,
        (fun v ->
          let a, b = V.to_pair v in
          V.Int (((2 * V.to_int a) + V.to_int b) mod 1_000_003)),
        pair_cost );
      ( "scale",
        2,
        (fun v ->
          let e, x = V.to_pair v in
          V.Int (V.to_int e * V.to_int x)),
        pair_cost );
      ( "step",
        2,
        (fun v ->
          let s, x = V.to_pair v in
          let s = V.to_int s and x = V.to_int x in
          V.Tuple [ V.Int (s + x); V.Int ((s * x) + 1) ]),
        pair_cost );
      ( "chunks",
        2,
        (fun v ->
          match v with
          | V.Tuple [ V.Int n; V.List xs ] ->
              V.List
                (List.init n (fun i ->
                     V.List (List.filteri (fun j _ -> j mod n = i) xs)))
          | _ -> raise (V.Type_error "chunks")),
        fun _ -> 0.7 );
      ( "wsum",
        1,
        (fun v ->
          V.Int
            (List.fold_left (fun a x -> (3 * a) + V.to_int x) 1 (V.to_list v))),
        fun v -> 0.1 *. float_of_int (List.length (V.to_list v)) );
      ( "total",
        1,
        (fun v -> V.Int (List.fold_left (fun a x -> a + V.to_int x) 0 (V.to_list v))),
        fun _ -> 0.9 );
      ( "split3",
        1,
        (fun v ->
          let n = V.to_int v in
          if n > 2 then V.Tuple [ V.List [ V.Int (n / 3); V.Int (n - 1) ]; V.Int (n mod 5) ]
          else V.Tuple [ V.List []; V.Int (n + 3) ]),
        int_cost 3 );
    ]

let ints xs = V.List (List.map (fun x -> V.Int x) xs)
let order_items = ints [ 3; 14; 1; 5; 9; 2; 6 ]

let df_in state init =
  let comp =
    match state with
    | Ir.Read_only -> "scale"
    | Ir.Owner | Ir.Resource -> "step"
    | Ir.Stateless | Ir.Accumulator -> "sq"
  in
  Ir.Df { nworkers = 3; comp; acc = "addq"; init; state }

(* (name, three-frame program, input, value, cycles as %h) *)
let order_pins =
  [
    ("df", Ir.program ~frames:3 "df" (df_in Ir.Stateless (V.Int 4)), order_items,
     "8071", "0x1.8759d6806e066p+7");
    ("df_ro", Ir.program ~frames:3 "df_ro" (df_in Ir.Read_only (V.pair (V.Int 3) (V.Int 4))),
     order_items, "2738", "0x1.7b67eb0b85a6ep+8");
    ("df_acc", Ir.program ~frames:3 "df_acc" (df_in Ir.Accumulator (V.Int 4)),
     order_items, "209976", "0x1.7ac69e82b88abp+12");
    ("df_own", Ir.program ~frames:3 "df_own"
       (df_in Ir.Owner (V.pair (ints [ 0; 5; 11 ]) (V.Int 4))),
     order_items, "33003", "0x1.be4afd7f37f1fp+9");
    ("df_res", Ir.program ~frames:3 "df_res" (df_in Ir.Resource (V.pair (V.Int 2) (V.Int 4))),
     order_items, "64979", "0x1.3a6b4c6621b42p+10");
    ("tf", Ir.program ~frames:3 "tf"
       (Ir.Tf { nworkers = 2; work = "split3"; acc = "addq"; init = V.Int 1 }),
     ints [ 17; 4; 30 ], "395593", "0x1.93d6f5b9fd4fap+17");
    ("scm", Ir.program ~frames:3 "scm"
       (Ir.Scm { nparts = 3; split = "chunks"; compute = "wsum"; merge = "total" }),
     order_items, "149", "0x1.2666666666666p+1");
  ]

let test_run_cost_call_order () =
  List.iter
    (fun (name, prog, input, value, cycles) ->
      let v, c = Skel.Sem.run_cost (order_table ()) prog input in
      Alcotest.(check string) (name ^ " value") value (V.to_string v);
      Alcotest.(check string) (name ^ " cycles") cycles (Printf.sprintf "%h" c))
    order_pins

(* One-worker df, tf and scm stages become Serial_* entries under
   [Transform.normalize]; their apply and cost are pinned on the same
   inputs. *)
let serial_pins =
  [
    ("df", Ir.Df { nworkers = 1; comp = "sq"; acc = "addq"; init = V.Int 4; state = Ir.Stateless },
     order_items, "8071", "0x1.ff00000000002p+8");
    ("tf", Ir.Tf { nworkers = 1; work = "split3"; acc = "addq"; init = V.Int 1 },
     ints [ 17; 4; 30 ], "395593", "0x1.fae6666666667p+8");
    ("scm", Ir.Scm { nparts = 1; split = "chunks"; compute = "wsum"; merge = "total" },
     order_items, "8085", "0x1.2666666666666p+1");
  ]

let test_serial_call_order () =
  let table = order_table () in
  List.iter
    (fun (name, stage, input, value, cost) ->
      match Skel.Transform.normalize table (Ir.program name stage) with
      | { Ir.body = Ir.Seq f; _ }, _ ->
          let v = Skel.Funtable.apply table f input
          and c = Skel.Funtable.cost table f input in
          Alcotest.(check string) (name ^ " apply") value (V.to_string v);
          Alcotest.(check string) (name ^ " cost") cost (Printf.sprintf "%h" c);
          let v', _ = Skel.Sem.run_cost table (Ir.program name stage) input in
          Alcotest.(check value_testable) (name ^ " agrees with Sem") v' v
      | _, _ -> Alcotest.failf "%s did not serialise" name)
    serial_pins

let () =
  Alcotest.run "sem"
    [
      ( "stages",
        [
          Alcotest.test_case "seq" `Quick test_seq;
          Alcotest.test_case "pipe" `Quick test_pipe;
          Alcotest.test_case "df" `Quick test_df;
          Alcotest.test_case "df rejects non-list" `Quick test_df_rejects_non_list;
          Alcotest.test_case "scm" `Quick test_scm;
          Alcotest.test_case "tf" `Quick test_tf;
        ] );
      ( "programs",
        [
          Alcotest.test_case "itermem stream" `Quick test_itermem_run;
          Alcotest.test_case "itermem rejected mid-pipeline" `Quick test_itermem_rejected_in_stage;
          Alcotest.test_case "plain program" `Quick test_run_plain_program;
          Alcotest.test_case "run_cost accounting" `Quick test_run_cost_accounts_cycles;
          Alcotest.test_case "eval_stage_cost df" `Quick test_eval_stage_cost_df;
          Alcotest.test_case "run_cost call order" `Quick test_run_cost_call_order;
          Alcotest.test_case "serialised farms call order" `Quick test_serial_call_order;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_df_matches_skeleton ]);
    ]
