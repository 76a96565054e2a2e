(* Tests for the skeletal IR: validation rules and structural queries. *)

module V = Skel.Value
module Ir = Skel.Ir

let table_with names =
  let t = Skel.Funtable.create () in
  List.iter (fun n -> Skel.Funtable.register t n (fun v -> v)) names;
  t

let ok = Alcotest.(check bool) "valid" true
let bad = Alcotest.(check bool) "invalid" false

let is_valid table prog = Result.is_ok (Ir.validate table prog)

let test_validate_seq () =
  let t = table_with [ "f" ] in
  ok (is_valid t (Ir.program "p" (Ir.Seq "f")));
  bad (is_valid t (Ir.program "p" (Ir.Seq "g")))

let test_validate_pipe () =
  let t = table_with [ "f"; "g" ] in
  ok (is_valid t (Ir.program "p" (Ir.Pipe [ Ir.Seq "f"; Ir.Seq "g" ])));
  ok (is_valid t (Ir.program "p" (Ir.Pipe [])));
  bad (is_valid t (Ir.program "p" (Ir.Pipe [ Ir.Seq "f"; Ir.Seq "missing" ])))

let test_validate_df () =
  let t = table_with [ "comp"; "acc" ] in
  let df n = Ir.Df { nworkers = n; comp = "comp"; acc = "acc"; init = V.Int 0; state = Ir.Stateless } in
  ok (is_valid t (Ir.program "p" (df 3)));
  bad (is_valid t (Ir.program "p" (df 0)));
  bad (is_valid t (Ir.program "p" (Ir.Df { nworkers = 2; comp = "x"; acc = "acc"; init = V.Unit; state = Ir.Stateless })))

let test_validate_scm () =
  let t = table_with [ "split"; "comp"; "merge" ] in
  ok
    (is_valid t
       (Ir.program "p" (Ir.Scm { nparts = 4; split = "split"; compute = "comp"; merge = "merge" })));
  bad
    (is_valid t
       (Ir.program "p" (Ir.Scm { nparts = -1; split = "split"; compute = "comp"; merge = "merge" })))

let test_validate_itermem_top_only () =
  let t = table_with [ "in"; "out"; "f" ] in
  let loop = Ir.Seq "f" in
  let im = Ir.Itermem { input = "in"; loop; output = "out"; init = V.Unit } in
  ok (is_valid t (Ir.program "p" im));
  (* nested itermem is rejected *)
  let nested = Ir.Itermem { input = "in"; loop = im; output = "out"; init = V.Unit } in
  bad (is_valid t (Ir.program "p" nested));
  (* itermem inside a pipe is rejected *)
  bad (is_valid t (Ir.program "p" (Ir.Pipe [ im ])))

let test_validate_frames () =
  let t = table_with [ "f" ] in
  bad (is_valid t (Ir.program ~frames:0 "p" (Ir.Seq "f")))

let test_skeleton_instances () =
  let stage =
    Ir.Itermem
      {
        input = "in";
        loop =
          Ir.Pipe
            [
              Ir.Seq "a";
              Ir.Df { nworkers = 2; comp = "c"; acc = "k"; init = V.Unit; state = Ir.Stateless };
              Ir.Seq "b";
            ];
        output = "out";
        init = V.Unit;
      }
  in
  Alcotest.(check (list string)) "instances" [ "itermem"; "df" ]
    (Ir.skeleton_instances stage)

let test_pp_smoke () =
  let prog =
    Ir.program ~frames:3 "demo"
      (Ir.Tf { nworkers = 2; work = "w"; acc = "a"; init = V.Int 1 })
  in
  let s = Format.asprintf "%a" Ir.pp_program prog in
  Alcotest.(check bool) "mentions tf" true
    (Astring.String.is_infix ~affix:"tf 2 w a" s);
  Alcotest.(check bool) "mentions frames" true
    (Astring.String.is_infix ~affix:"frames=3" s)

let () =
  Alcotest.run "ir"
    [
      ( "validate",
        [
          Alcotest.test_case "seq" `Quick test_validate_seq;
          Alcotest.test_case "pipe" `Quick test_validate_pipe;
          Alcotest.test_case "df" `Quick test_validate_df;
          Alcotest.test_case "scm" `Quick test_validate_scm;
          Alcotest.test_case "itermem top only" `Quick test_validate_itermem_top_only;
          Alcotest.test_case "frames positive" `Quick test_validate_frames;
        ] );
      ( "queries",
        [
          Alcotest.test_case "skeleton_instances" `Quick test_skeleton_instances;
          Alcotest.test_case "pp" `Quick test_pp_smoke;
        ] );
    ]
