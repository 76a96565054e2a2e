(* Quickstart: a data farm in five steps.

   Squares a list of numbers with the df skeleton, checks the sequential
   emulation against the parallel executive on a 4-processor ring, and
   prints both results plus the machine metrics.

   Run with: dune exec examples/quickstart.exe *)

module V = Skel.Value

let () =
  (* 1. Register the application's sequential functions (the paper's "C
        functions"), each with a cost model in processor cycles. *)
  let table = Skel.Funtable.create () in
  Skel.Funtable.register table "square" ~cost:(fun _ -> 20_000.0) (fun v ->
      V.Int (V.to_int v * V.to_int v));
  Skel.Funtable.register table "add" ~arity:2 ~cost:(fun _ -> 500.0) (fun v ->
      let a, b = V.to_pair v in
      V.Int (V.to_int a + V.to_int b));

  (* 2. Write the skeletal program: sum the squares with a 3-worker farm. *)
  let program =
    Skel.Ir.program "sum-of-squares"
      (Skel.Ir.Df { nworkers = 3; comp = "square"; acc = "add"; init = V.Int 0; state = Skel.Ir.Stateless })
  in
  let input = V.List (List.init 10 (fun i -> V.Int (i + 1))) in

  (* 3. Sequential emulation: the declarative semantics, runnable anywhere. *)
  let emulated = Skel.Sem.run table program input in
  Printf.printf "emulated result:  %s\n" (V.to_string emulated);

  (* 4. Parallel execution: expand to a process network, map it onto a ring
        of four T9000-style processors, run the generated executive on the
        machine simulator. *)
  let compiled = Skipper_lib.Pipeline.compile_ir ~table program in
  let arch = Archi.ring 4 in
  let result = Skipper_lib.Pipeline.execute ~input compiled arch in
  Printf.printf "parallel result:  %s\n" (V.to_string result.Executive.value);

  (* 5. They agree (the paper's correctness story), and the machine metrics
        show what the run cost. *)
  assert (V.equal emulated result.Executive.value);
  Printf.printf "latency: %.3f ms over %d messages (%d bytes)\n"
    (result.Executive.first_latency *. 1e3)
    result.Executive.stats.Machine.Sim.messages
    result.Executive.stats.Machine.Sim.bytes;

  (* 6. Every stage the pipeline ran, with wall time and artifact size
        (the same report `skipperc --timings` prints). *)
  Format.printf "%a" Skipper_lib.Pipeline.pp_timings compiled;
  print_endline "quickstart: OK"
