(* Tests for architecture graphs: topologies, routing and transfer costs. *)

(* Number of links along the route. *)
let hops t a b = List.length (Archi.route t a b) - 1

let test_ring_structure () =
  let r = Archi.ring 8 in
  Alcotest.(check int) "nprocs" 8 (Archi.nprocs r);
  Alcotest.(check int) "links (bidirectional)" 16 (List.length (Archi.links r));
  Alcotest.(check (list int)) "neighbours of 0" [ 1; 7 ] (Archi.neighbours r 0)

let test_ring_degenerate () =
  let r1 = Archi.ring 1 in
  Alcotest.(check int) "single proc no links" 0 (List.length (Archi.links r1));
  let r2 = Archi.ring 2 in
  Alcotest.(check int) "two procs one channel" 2 (List.length (Archi.links r2))

let test_chain_and_star_and_grid () =
  let c = Archi.chain 5 in
  Alcotest.(check int) "chain links" 8 (List.length (Archi.links c));
  let s = Archi.star 5 in
  Alcotest.(check (list int)) "star centre" [ 1; 2; 3; 4 ] (Archi.neighbours s 0);
  let g = Archi.grid 3 4 in
  Alcotest.(check int) "grid procs" 12 (Archi.nprocs g);
  (* 2*3*4 - 3 - 4 = 17 undirected edges *)
  Alcotest.(check int) "grid links" 34 (List.length (Archi.links g))

let test_fully_connected () =
  let f = Archi.fully_connected 5 in
  Alcotest.(check int) "links" (5 * 4) (List.length (Archi.links f));
  Alcotest.(check int) "all hops 1" 1 (hops f 0 4)

let test_constructors_reject_bad_sizes () =
  Alcotest.check_raises "ring 0" (Invalid_argument "Archi.ring: n <= 0") (fun () ->
      ignore (Archi.ring 0));
  Alcotest.check_raises "grid 0" (Invalid_argument "Archi.grid: non-positive dimensions")
    (fun () -> ignore (Archi.grid 0 3))

let test_route_identity () =
  let r = Archi.ring 6 in
  Alcotest.(check (list int)) "self route" [ 3 ] (Archi.route r 3 3);
  Alcotest.(check int) "self hops" 0 (hops r 3 3)

let test_route_shortest_on_ring () =
  let r = Archi.ring 8 in
  Alcotest.(check int) "adjacent" 1 (hops r 0 1);
  Alcotest.(check int) "wraps the short way" 2 (hops r 0 6);
  Alcotest.(check int) "opposite side" 4 (hops r 0 4);
  (* the route is a valid link path *)
  let path = Archi.route r 2 7 in
  let rec ok = function
    | a :: (b :: _ as rest) -> Archi.link_between r a b <> None && ok rest
    | _ -> true
  in
  Alcotest.(check bool) "route uses links" true (ok path);
  Alcotest.(check int) "route endpoints" 2 (List.hd path)

let test_route_deterministic () =
  let r = Archi.ring 9 in
  Alcotest.(check (list int)) "same route twice" (Archi.route r 1 5) (Archi.route r 1 5)

let test_route_unreachable () =
  let procs =
    Array.init 2 (fun i ->
        { Archi.id = i; pname = Printf.sprintf "P%d" i; cycle_time = 1e-8 })
  in
  let a = Archi.custom ~name:"disconnected" procs [] in
  Alcotest.(check bool) "no path raises" true
    (try ignore (Archi.route a 0 1); false with Failure _ -> true)

let test_transfer_time_unreachable () =
  let procs =
    Array.init 2 (fun i ->
        { Archi.id = i; pname = Printf.sprintf "P%d" i; cycle_time = 1e-8 })
  in
  let a = Archi.custom ~name:"disconnected" procs [] in
  Alcotest.check_raises "same text as Archi.route"
    (Failure "Archi.route: no path 0 -> 1")
    (fun () -> ignore (Archi.transfer_time a 0 1 1024));
  Alcotest.(check (float 0.0)) "local still free" 0.0 (Archi.transfer_time a 1 1 1024)

let test_custom_validation () =
  let procs =
    Array.init 2 (fun i ->
        { Archi.id = i; pname = Printf.sprintf "P%d" i; cycle_time = 1e-8 })
  in
  Alcotest.(check bool) "self link rejected" true
    (try ignore (Archi.custom ~name:"x" procs [ (0, 0, 1e7, 1e-6) ]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "dangling endpoint rejected" true
    (try ignore (Archi.custom ~name:"x" procs [ (0, 5, 1e7, 1e-6) ]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore (Archi.custom ~name:"x" procs [ (0, 1, 1e7, 1e-6); (0, 1, 1e7, 1e-6) ]);
       false
     with Invalid_argument _ -> true)

let test_transfer_time_model () =
  let r = Archi.ring ~bandwidth:1e6 ~startup:1e-5 4 in
  Alcotest.(check (float 1e-12)) "local is free" 0.0 (Archi.transfer_time r 2 2 1000);
  (* one hop: startup + bytes/bw *)
  Alcotest.(check (float 1e-9)) "one hop" (1e-5 +. 1e-3) (Archi.transfer_time r 0 1 1000);
  (* two hops double it (store and forward) *)
  Alcotest.(check (float 1e-9)) "two hops" (2.0 *. (1e-5 +. 1e-3))
    (Archi.transfer_time r 0 2 1000)

let test_transfer_monotonic_in_bytes () =
  let r = Archi.ring 6 in
  Alcotest.(check bool) "more bytes cost more" true
    (Archi.transfer_time r 0 3 10_000 > Archi.transfer_time r 0 3 100)

let prop_route_symmetric_length =
  QCheck.Test.make ~name:"ring route lengths are symmetric" ~count:200
    QCheck.(triple (int_range 2 16) small_nat small_nat)
    (fun (n, a, b) ->
      let r = Archi.ring n in
      let a = a mod n and b = b mod n in
      hops r a b = hops r b a)

let prop_route_at_most_half_ring =
  QCheck.Test.make ~name:"ring routes take the short way" ~count:200
    QCheck.(triple (int_range 2 16) small_nat small_nat)
    (fun (n, a, b) ->
      let r = Archi.ring n in
      let a = a mod n and b = b mod n in
      hops r a b <= (n / 2) + (n mod 2))

(* Transfer time as a fold over the pairs of [Archi.route]: the oracle the
   route-free [Archi.transfer_time] must match bit for bit. *)
let oracle_transfer_time t a b bytes =
  if a = b then 0.0
  else
    let rec pairs = function
      | x :: (y :: _ as rest) -> (x, y) :: pairs rest
      | _ -> []
    in
    List.fold_left
      (fun acc (x, y) ->
        match Archi.link_between t x y with
        | Some l -> acc +. l.Archi.startup +. (float_of_int bytes /. l.Archi.bandwidth)
        | None -> failwith "Archi.transfer_time: route uses missing link")
      0.0
      (pairs (Archi.route t a b))

(* Standard topologies, or a random directed graph (possibly disconnected)
   whose links each carry their own bandwidth and startup. *)
let random_topology (kind, n, seed) =
  match kind with
  | 0 -> Archi.ring n
  | 1 -> Archi.chain n
  | 2 -> Archi.star n
  | 3 -> Archi.fully_connected n
  | 4 -> Archi.grid 2 ((n + 1) / 2)
  | _ ->
      let rng = Random.State.make [| seed |] in
      let edges = ref [] in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if a <> b && Random.State.int rng 4 = 0 then
            edges :=
              ( a, b,
                [| 1e6; 1e7; 3.3e7 |].(Random.State.int rng 3),
                Random.State.float rng 1e-5 )
              :: !edges
        done
      done;
      Archi.custom ~name:"random"
        (Array.init n (fun i ->
             { Archi.id = i; pname = Printf.sprintf "P%d" i; cycle_time = 5e-8 }))
        (List.rev !edges)

let prop_transfer_time_matches_route_fold =
  QCheck.Test.make ~name:"transfer time equals the route fold bit for bit"
    ~count:300
    QCheck.(
      quad (pair (int_range 0 5) (int_range 1 12)) (int_range 0 10_000)
        (pair small_nat small_nat) (int_range 0 1_000_000))
    (fun ((kind, n), seed, (a, b), bytes) ->
      let t = random_topology (kind, n, seed) in
      let n = Archi.nprocs t in
      let a = a mod n and b = b mod n in
      let outcome f = try Ok (Int64.bits_of_float (f ())) with Failure m -> Error m in
      outcome (fun () -> Archi.transfer_time t a b bytes)
      = outcome (fun () -> oracle_transfer_time t a b bytes))

let () =
  Alcotest.run "archi"
    [
      ( "topologies",
        [
          Alcotest.test_case "ring" `Quick test_ring_structure;
          Alcotest.test_case "degenerate rings" `Quick test_ring_degenerate;
          Alcotest.test_case "chain/star/grid" `Quick test_chain_and_star_and_grid;
          Alcotest.test_case "fully connected" `Quick test_fully_connected;
          Alcotest.test_case "bad sizes" `Quick test_constructors_reject_bad_sizes;
          Alcotest.test_case "custom validation" `Quick test_custom_validation;
        ] );
      ( "routing",
        [
          Alcotest.test_case "identity" `Quick test_route_identity;
          Alcotest.test_case "shortest on ring" `Quick test_route_shortest_on_ring;
          Alcotest.test_case "deterministic" `Quick test_route_deterministic;
          Alcotest.test_case "unreachable" `Quick test_route_unreachable;
          QCheck_alcotest.to_alcotest prop_route_symmetric_length;
          QCheck_alcotest.to_alcotest prop_route_at_most_half_ring;
        ] );
      ( "costs",
        [
          Alcotest.test_case "transfer model" `Quick test_transfer_time_model;
          Alcotest.test_case "transfer unreachable" `Quick test_transfer_time_unreachable;
          Alcotest.test_case "monotonic in bytes" `Quick test_transfer_monotonic_in_bytes;
          QCheck_alcotest.to_alcotest prop_transfer_time_matches_route_fold;
        ] );
    ]
