type span = { job : int; domain : int; start_s : float; finish_s : float }

type stats = {
  njobs : int;
  domains : int;
  wall_s : float;
  busy_s : float array;
  jobs_run : int array;
  spans : span list;
}

let default_jobs () = Domain.recommended_domain_count ()

(* One worker's trip through the job list: pull the next unclaimed index,
   run it, record its outcome and span, repeat until the counter runs past
   the end. [cells] is written disjointly (one writer per index) and reads
   happen only after every worker joined, so no cell needs to be atomic. *)
let worker ~next ~cells ~(thunks : (unit -> 'a) array) ~t0 w =
  let spans = ref [] in
  let rec pull () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length thunks then begin
      let start_s = Unix.gettimeofday () -. t0 in
      let outcome = try Ok (thunks.(i) ()) with e -> Error e in
      let finish_s = Unix.gettimeofday () -. t0 in
      cells.(i) <- Some outcome;
      spans := { job = i; domain = w; start_s; finish_s } :: !spans;
      pull ()
    end
  in
  pull ();
  !spans

let run_stats ?(jobs = 1) thunks =
  let thunks = Array.of_list thunks in
  let njobs = Array.length thunks in
  let domains = max 1 (min jobs njobs) in
  let t0 = Unix.gettimeofday () in
  let cells = Array.make njobs None in
  let next = Atomic.make 0 in
  (* Workers 1..domains-1 are spawned domains; the calling domain is worker
     0, so [jobs] is the true parallelism degree. *)
  let spawned =
    List.init (domains - 1) (fun k ->
        Domain.spawn (fun () -> worker ~next ~cells ~thunks ~t0 (k + 1)))
  in
  let own_spans = worker ~next ~cells ~thunks ~t0 0 in
  let all_spans = own_spans :: List.map Domain.join spawned in
  let wall_s = Unix.gettimeofday () -. t0 in
  let busy_s = Array.make domains 0.0 in
  let jobs_run = Array.make domains 0 in
  let spans =
    List.concat all_spans
    |> List.sort (fun a b -> compare a.job b.job)
  in
  List.iter
    (fun s ->
      busy_s.(s.domain) <- busy_s.(s.domain) +. (s.finish_s -. s.start_s);
      jobs_run.(s.domain) <- jobs_run.(s.domain) + 1)
    spans;
  let stats = { njobs; domains; wall_s; busy_s; jobs_run; spans } in
  (* Deterministic failure: re-raise the earliest submitted job's exception
     (all jobs ran either way, so no sibling was torn down mid-flight). *)
  let results =
    Array.map
      (function
        | Some outcome -> outcome
        | None -> Error (Failure "Domain_pool: job never ran"))
      cells
  in
  Array.iter (function Error e -> raise e | Ok _ -> ()) results;
  ( Array.to_list
      (Array.map (function Ok v -> v | Error _ -> assert false) results),
    stats )

let run ?jobs thunks = fst (run_stats ?jobs thunks)
