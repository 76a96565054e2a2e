(* Tests for the declarative skeleton definitions (paper §2 and Fig. 4). *)

module S = Skel.Skeletons

let test_df_is_fold_map () =
  let result = S.df 4 (fun x -> x * x) ( + ) 0 [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "sum of squares" 30 result

let test_df_ignores_worker_count () =
  let f n = S.df n string_of_int (fun acc s -> acc ^ s) "" [ 1; 2; 3 ] in
  Alcotest.(check string) "n=1" "123" (f 1);
  Alcotest.(check string) "n=100" "123" (f 100)

let test_df_empty_list () =
  Alcotest.(check int) "empty gives init" 42 (S.df 3 (fun x -> x) ( + ) 42 [])

let test_df_accumulation_order () =
  (* Declaratively, accumulation is left-to-right over the input order. *)
  let result = S.df 2 (fun x -> x) (fun acc x -> acc @ [ x ]) [] [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "left fold order" [ 1; 2; 3 ] result

let test_scm_composition () =
  (* Split a string into n chunks, upper-case each, concatenate. *)
  let split n s =
    let len = String.length s in
    let chunk = (len + n - 1) / n in
    List.init n (fun i ->
        let start = i * chunk in
        if start >= len then "" else String.sub s start (min chunk (len - start)))
  in
  let result = S.scm 3 split String.uppercase_ascii (String.concat "") "abcdef" in
  Alcotest.(check string) "scm" "ABCDEF" result

let test_scm_merge_sees_part_order () =
  let split n x = List.init n (fun i -> (i, x)) in
  let result = S.scm 4 split fst (List.map string_of_int) 99 in
  Alcotest.(check (list string)) "parts in order" [ "0"; "1"; "2"; "3" ] result

let test_tf_no_new_packets_is_df () =
  let work x = ([], x * 2) in
  Alcotest.(check int) "tf degenerates to df" 12 (S.tf 3 work ( + ) 0 [ 1; 2; 3 ])

let test_tf_generates_packets () =
  (* Summing 2^depth leaves of a binary division of an interval. *)
  let work (lo, hi) =
    if hi - lo <= 1 then ([], lo)
    else
      let mid = (lo + hi) / 2 in
      ([ (lo, mid); (mid, hi) ], 0)
  in
  let result = S.tf 4 work ( + ) 0 [ (0, 8) ] in
  Alcotest.(check int) "sum 0..7" 28 result

let test_tf_depth_first_order () =
  (* Depth-first: sub-packets are processed before the rest of the queue. *)
  let log = ref [] in
  let work x =
    log := x :: !log;
    if x = 1 then ([ 10; 11 ], x) else ([], x)
  in
  let _ = S.tf 2 work ( + ) 0 [ 1; 2 ] in
  Alcotest.(check (list int)) "visit order" [ 1; 10; 11; 2 ] (List.rev !log)

exception Stop

let test_itermem_bounded () =
  (* [itermem] never returns; an output function that raises after four
     outputs ends the stream. *)
  let outs = ref [] in
  let loop (z, x) = (z + x, z * 10) in
  let out y =
    outs := y :: !outs;
    if List.length !outs = 4 then raise Stop
  in
  (try S.itermem (fun x -> x) loop out 0 1 with Stop -> ());
  Alcotest.(check (list int)) "outputs" [ 0; 10; 20; 30 ] (List.rev !outs)

let prop_df_equals_fold_map =
  QCheck.Test.make ~name:"df n f (+) z = fold (+) z . map f" ~count:300
    QCheck.(triple (int_range 1 16) (list small_signed_int) small_signed_int)
    (fun (n, xs, z) ->
      S.df n (fun x -> (2 * x) + 1) ( + ) z xs
      = List.fold_left ( + ) z (List.map (fun x -> (2 * x) + 1) xs))

let prop_scm_equals_direct =
  QCheck.Test.make ~name:"scm = merge . map comp . split" ~count:300
    QCheck.(pair (int_range 1 8) (small_list small_signed_int))
    (fun (n, xs) ->
      let split k l =
        (* deal round-robin into k sublists *)
        let buckets = Array.make k [] in
        List.iteri (fun i x -> buckets.(i mod k) <- x :: buckets.(i mod k)) l;
        Array.to_list (Array.map List.rev buckets)
      in
      let comp = List.map (fun x -> x * x) in
      let merge = List.concat in
      S.scm n split comp merge xs = merge (List.map comp (split n xs)))

let prop_tf_sum_invariant =
  QCheck.Test.make ~name:"tf interval division sums correctly" ~count:200
    QCheck.(int_range 1 60)
    (fun hi ->
      let work (lo, h) =
        if h - lo <= 1 then ([], lo)
        else
          let mid = (lo + h) / 2 in
          ([ (lo, mid); (mid, h) ], 0)
      in
      S.tf 3 work ( + ) 0 [ (0, hi) ] = hi * (hi - 1) / 2)

let () =
  Alcotest.run "skeletons"
    [
      ( "df",
        [
          Alcotest.test_case "fold of map" `Quick test_df_is_fold_map;
          Alcotest.test_case "worker count irrelevant" `Quick test_df_ignores_worker_count;
          Alcotest.test_case "empty list" `Quick test_df_empty_list;
          Alcotest.test_case "accumulation order" `Quick test_df_accumulation_order;
        ] );
      ( "scm",
        [
          Alcotest.test_case "composition" `Quick test_scm_composition;
          Alcotest.test_case "merge sees part order" `Quick test_scm_merge_sees_part_order;
        ] );
      ( "tf",
        [
          Alcotest.test_case "degenerates to df" `Quick test_tf_no_new_packets_is_df;
          Alcotest.test_case "generates packets" `Quick test_tf_generates_packets;
          Alcotest.test_case "depth-first order" `Quick test_tf_depth_first_order;
        ] );
      ( "itermem",
        [
          Alcotest.test_case "bounded iteration" `Quick test_itermem_bounded;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_df_equals_fold_map;
          QCheck_alcotest.to_alcotest prop_scm_equals_direct;
          QCheck_alcotest.to_alcotest prop_tf_sum_invariant;
        ] );
    ]
