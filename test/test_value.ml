(* Tests for the universal value type: projections, equality, ordering,
   size model and printing. *)

module V = Skel.Value

let value_testable = Alcotest.testable V.pp V.equal

(* Generator for ground values (no images; image equality is covered in the
   vision tests). *)
let rec value_gen depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [
        return V.Unit;
        map (fun b -> V.Bool b) bool;
        map (fun n -> V.Int n) small_signed_int;
        map (fun f -> V.Float (float_of_int f)) small_signed_int;
        map (fun s -> V.Str s) (string_size ~gen:printable (int_bound 8));
      ]
  else
    frequency
      [
        (3, value_gen 0);
        (1, map (fun vs -> V.List vs) (list_size (int_bound 4) (value_gen (depth - 1))));
        ( 1,
          map2
            (fun a b -> V.Tuple [ a; b ])
            (value_gen (depth - 1)) (value_gen (depth - 1)) );
        ( 1,
          map
            (fun vs -> V.Record (List.mapi (fun i v -> (Printf.sprintf "f%d" i, v)) vs))
            (list_size (int_bound 3) (value_gen (depth - 1))) );
      ]

let arbitrary_value = QCheck.make (value_gen 3) ~print:V.to_string

let test_constructors_and_projections () =
  Alcotest.(check int) "to_int" 5 (V.to_int (V.int 5));
  Alcotest.(check string) "to_str" "hi" (V.to_str (V.str "hi"));
  Alcotest.(check (float 0.0)) "to_float" 2.5 (V.to_float (V.float 2.5));
  Alcotest.(check (float 0.0)) "int widens to float" 3.0 (V.to_float (V.int 3));
  let a, b = V.to_pair (V.pair (V.int 1) (V.int 2)) in
  Alcotest.(check int) "pair fst" 1 (V.to_int a);
  Alcotest.(check int) "pair snd" 2 (V.to_int b);
  Alcotest.(check int) "list length" 3
    (List.length (V.to_list (V.list [ V.int 1; V.int 2; V.int 3 ])))

let test_projection_errors () =
  let fails f = try ignore (f ()); false with V.Type_error _ -> true in
  Alcotest.(check bool) "int of bool" true (fails (fun () -> V.to_int (V.bool true)));
  Alcotest.(check bool) "pair of triple" true
    (fails (fun () -> V.to_pair (V.Tuple [ V.Unit; V.Unit; V.Unit ])));
  Alcotest.(check bool) "list of int" true (fails (fun () -> V.to_list (V.int 1)));
  Alcotest.(check bool) "image of int" true (fails (fun () -> V.to_image (V.int 1)))

let test_record_field () =
  let r = V.record [ ("a", V.int 1); ("b", V.str "x") ] in
  Alcotest.(check int) "field a" 1 (V.to_int (V.field "a" r));
  Alcotest.(check bool) "missing field" true
    (try ignore (V.field "z" r); false with V.Type_error _ -> true)

let test_byte_size () =
  Alcotest.(check int) "unit" 1 (V.byte_size V.Unit);
  Alcotest.(check int) "int" 4 (V.byte_size (V.int 0));
  Alcotest.(check int) "float" 8 (V.byte_size (V.float 0.0));
  Alcotest.(check int) "string" (4 + 5) (V.byte_size (V.str "hello"));
  Alcotest.(check int) "list header + elems" (4 + 8) (V.byte_size (V.list [ V.int 1; V.int 2 ]));
  let img = Vision.Image.create 10 10 in
  Alcotest.(check int) "image" 108 (V.byte_size (V.image img))

let test_equal_images () =
  let a = Vision.Image.create ~init:5 4 4 and b = Vision.Image.create ~init:5 4 4 in
  Alcotest.(check value_testable) "equal images" (V.image a) (V.image b);
  Vision.Image.set b 0 0 9;
  Alcotest.(check bool) "unequal images" false (V.equal (V.image a) (V.image b))

let test_equal_mixed_kinds () =
  Alcotest.(check bool) "int <> float" false (V.equal (V.int 1) (V.float 1.0));
  Alcotest.(check bool) "tuple <> list" false
    (V.equal (V.Tuple [ V.int 1; V.int 2 ]) (V.list [ V.int 1; V.int 2 ]))

let test_pp_forms () =
  let check s v = Alcotest.(check string) s s (V.to_string v) in
  check "()" V.Unit;
  check "42" (V.int 42);
  check "(1, 2)" (V.pair (V.int 1) (V.int 2));
  check "[1; 2]" (V.list [ V.int 1; V.int 2 ]);
  check "{a = 1}" (V.record [ ("a", V.int 1) ])

let prop_equal_reflexive =
  QCheck.Test.make ~name:"equality is reflexive" ~count:300 arbitrary_value (fun v ->
      V.equal v v)

let prop_compare_consistent_with_equal =
  QCheck.Test.make ~name:"compare = 0 iff equal" ~count:300
    (QCheck.pair arbitrary_value arbitrary_value) (fun (a, b) ->
      V.equal a b = (V.compare a b = 0))

let prop_compare_antisymmetric =
  QCheck.Test.make ~name:"compare is antisymmetric" ~count:300
    (QCheck.pair arbitrary_value arbitrary_value) (fun (a, b) ->
      let c1 = V.compare a b and c2 = V.compare b a in
      (c1 = 0 && c2 = 0) || (c1 > 0 && c2 < 0) || (c1 < 0 && c2 > 0))

let prop_compare_transitive =
  QCheck.Test.make ~name:"compare is transitive" ~count:300
    (QCheck.triple arbitrary_value arbitrary_value arbitrary_value) (fun (a, b, c) ->
      let sorted = List.sort V.compare [ a; b; c ] in
      (* sorting with a transitive comparator is stable wrt pairwise order *)
      match sorted with
      | [ x; y; z ] -> V.compare x y <= 0 && V.compare y z <= 0 && V.compare x z <= 0
      | _ -> false)

let prop_byte_size_positive =
  QCheck.Test.make ~name:"byte size is positive" ~count:300 arbitrary_value (fun v ->
      V.byte_size v > 0)

let () =
  Alcotest.run "value"
    [
      ( "projections",
        [
          Alcotest.test_case "constructors" `Quick test_constructors_and_projections;
          Alcotest.test_case "projection errors" `Quick test_projection_errors;
          Alcotest.test_case "record field" `Quick test_record_field;
        ] );
      ( "model",
        [
          Alcotest.test_case "byte size" `Quick test_byte_size;
          Alcotest.test_case "image equality" `Quick test_equal_images;
          Alcotest.test_case "mixed kinds" `Quick test_equal_mixed_kinds;
          Alcotest.test_case "printing" `Quick test_pp_forms;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_equal_reflexive;
          QCheck_alcotest.to_alcotest prop_compare_consistent_with_equal;
          QCheck_alcotest.to_alcotest prop_compare_antisymmetric;
          QCheck_alcotest.to_alcotest prop_compare_transitive;
          QCheck_alcotest.to_alcotest prop_byte_size_positive;
        ] );
    ]
