(* Worker count for the test suites' pooled cases: [SKIPPER_JOBS] when it
   holds a positive integer, else [default], so a suite opts in to
   parallel execution without a flag. *)
let jobs ?(default = 1) () =
  match Sys.getenv_opt "SKIPPER_JOBS" with
  | None -> default
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> default)
