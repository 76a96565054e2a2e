(* Tests for the stage driver: per-stage reports, artifact
   memoization (hit/miss behaviour across architecture variants, source
   edits and table content — including hits across independently
   constructed equal tables, with derived-function replay, and through the
   persistent on-disk store, and a qcheck that a bounded memory never
   changes what compiles build), stage dumps, pins of the driver's bytes
   (dumps, report sequences, cache keys), and a qcheck property that the
   optimized (Skel.Transform) and unoptimized pipelines are
   emulation-equivalent on random skeletal programs. *)

module P = Skipper_lib.Pipeline
module Passes = Skipper_lib.Passes
module Stage = Skipper_lib.Stage
module V = Skel.Value
module Ir = Skel.Ir

let value_testable = Alcotest.testable V.pp V.equal

let simple_table () =
  Skel.Funtable.of_list
    [
      ("sq", 1, (fun v -> V.Int (V.to_int v * V.to_int v)), fun _ -> 1000.0);
      ( "plus",
        2,
        (fun v ->
          let a, b = V.to_pair v in
          V.Int (V.to_int a + V.to_int b)),
        fun _ -> 100.0 );
    ]

let simple_src =
  {|external sq : int -> int
external plus : int -> int -> int
let main = fun xs -> df 3 sq plus 0 xs|}

let frontend_names = [ "parse"; "typecheck"; "extract"; "transform"; "expand" ]
let nfrontend = List.length frontend_names

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

let test_reports_cover_frontend () =
  let c = P.compile_source ~table:(simple_table ()) simple_src in
  let reports = P.reports c in
  Alcotest.(check (list string)) "one report per front-end pass" frontend_names
    (List.map (fun r -> r.Stage.pass) reports);
  List.iter
    (fun r ->
      Alcotest.(check bool) "wall time non-negative" true (r.Stage.wall >= 0.0);
      Alcotest.(check bool) "no cache in play" false r.Stage.cached;
      Alcotest.(check bool) "sized" true (r.Stage.size > 0))
    reports

let test_reports_accumulate_across_calls () =
  let c = P.compile_source ~table:(simple_table ()) simple_src in
  let arch = Archi.ring 4 in
  let _schedule = P.map c arch in
  let _r = P.execute ~input:(V.List [ V.Int 1; V.Int 2 ]) c arch in
  let names = List.map (fun r -> r.Stage.pass) (P.reports c) in
  Alcotest.(check (list string)) "compile + map + execute stages"
    (frontend_names @ [ "cost"; "map"; "cost"; "map"; "simulate" ])
    names

(* A program mapped again and again keeps the first 256 reports, the
   front end among them, and no more. *)
let test_reports_bounded () =
  let c = P.compile_source ~table:(simple_table ()) simple_src in
  let arch = Archi.ring 4 in
  for _ = 1 to 200 do
    ignore (P.map c arch)
  done;
  let names = List.map (fun r -> r.Stage.pass) (P.reports c) in
  Alcotest.(check int) "256 kept" 256 (List.length names);
  Alcotest.(check (list string)) "front end first" frontend_names
    (List.filteri (fun i _ -> i < nfrontend) names);
  Alcotest.(check string) "then cost and map" "cost map"
    (String.concat " " (List.filteri (fun i _ -> i >= nfrontend && i < nfrontend + 2) names))

let test_timings_render () =
  let c = P.compile_source ~table:(simple_table ()) simple_src in
  let table = Format.asprintf "%a" P.pp_timings c in
  List.iter
    (fun pass ->
      Alcotest.(check bool) ("table mentions " ^ pass) true
        (Astring.String.is_infix ~affix:pass table))
    frontend_names;
  let json = Stage.reports_to_json (P.reports c) in
  Alcotest.(check bool) "json array" true
    (Astring.String.is_prefix ~affix:"[{" json);
  Alcotest.(check bool) "json has wall_ms" true
    (Astring.String.is_infix ~affix:{|"wall_ms"|} json)

(* ------------------------------------------------------------------ *)
(* Cache behaviour                                                     *)

let test_variant_compiles_reuse_frontend () =
  (* The acceptance scenario: compiling the E1 tracking program onto ring
     sizes {1,2,4,8,12,16} performs parse/typecheck/extract/expand exactly
     once; every variant after the first is pure cache hits. *)
  let cache = Passes.create_cache () in
  let config = Tracking.Funcs.default_config in
  let table = Tracking.Funcs.table config in
  let src = Tracking.Funcs.source config in
  let rings = [ 1; 2; 4; 8; 12; 16 ] in
  List.iter
    (fun p ->
      let c = P.compile_source ~frames:12 ~cache ~table src in
      let schedule = P.map c (Archi.ring p) in
      match Syndex.Schedule.validate schedule with
      | Ok () -> ()
      | Error m -> Alcotest.failf "ring-%d: invalid schedule: %s" p m)
    rings;
  let hits, misses = Passes.cache_stats cache in
  Alcotest.(check int) "front end ran exactly once" nfrontend misses;
  Alcotest.(check int) "every other variant memoized"
    (nfrontend * (List.length rings - 1))
    hits

let test_edited_source_invalidates () =
  let cache = Passes.create_cache () in
  let table = simple_table () in
  let _ = P.compile_source ~cache ~table simple_src in
  let edited = simple_src ^ "\n" in
  let _ = P.compile_source ~cache ~table edited in
  let _, misses = Passes.cache_stats cache in
  Alcotest.(check int) "both compiles ran the front end" (2 * nfrontend) misses

let test_option_change_invalidates_downstream () =
  let cache = Passes.create_cache () in
  let table = simple_table () in
  let _ = P.compile_source ~cache ~frames:1 ~table simple_src in
  let _ = P.compile_source ~cache ~frames:2 ~table simple_src in
  let hits, misses = Passes.cache_stats cache in
  (* parse and typecheck do not read [frames]: reused. extract, transform
     and expand sit after the option enters the key chain: re-run. *)
  Alcotest.(check int) "parse+typecheck reused" 2 hits;
  Alcotest.(check int) "extract onward re-ran" (nfrontend + 3) misses

(* Regression: the cache used to key on the table's physical identity, so
   two independently constructed but equal tables never shared artifacts.
   The key is a content digest now — equal registrations, equal keys. *)
let test_equal_tables_share () =
  let cache = Passes.create_cache () in
  let input = V.List (List.init 5 (fun i -> V.Int i)) in
  let c1 = P.compile_source ~cache ~table:(simple_table ()) simple_src in
  let c2 = P.compile_source ~cache ~table:(simple_table ()) simple_src in
  let hits, misses = Passes.cache_stats cache in
  Alcotest.(check int) "second compile fully cached" nfrontend hits;
  Alcotest.(check int) "front end ran once" nfrontend misses;
  Alcotest.(check value_testable) "same emulation" (P.emulate c1 input)
    (P.emulate c2 input)

let test_different_registrations_invalidate () =
  let cache = Passes.create_cache () in
  let other = simple_table () in
  Skel.Funtable.register other "extra" (fun v -> v);
  let _ = P.compile_source ~cache ~table:(simple_table ()) simple_src in
  let _ = P.compile_source ~cache ~table:other simple_src in
  let hits, misses = Passes.cache_stats cache in
  Alcotest.(check int) "no sharing across differing tables" 0 hits;
  Alcotest.(check int) "both compiles ran" (2 * nfrontend) misses

(* A source whose extraction registers a derived wrapper ([plus ys 100]
   consumes the dataflow value plus a constant): a cache hit on a fresh
   table must replay that registration or emulation would fail on the
   unknown wrapper name. *)
let wrapper_src =
  {|external sq : int -> int
external plus : int -> int -> int
let main = fun xs ->
  let ys = df 3 sq plus 0 xs in
  plus ys 100|}

let test_wrapper_replay_across_tables () =
  let cache = Passes.create_cache () in
  let input = V.List [ V.Int 1; V.Int 2; V.Int 3 ] in
  let c1 = P.compile_source ~cache ~table:(simple_table ()) wrapper_src in
  let c2 = P.compile_source ~cache ~table:(simple_table ()) wrapper_src in
  Alcotest.(check bool) "second compile fully cached" true
    (List.for_all (fun r -> r.Stage.cached) (P.reports c2));
  Alcotest.(check value_testable) "replayed wrapper evaluates" (V.Int 114)
    (P.emulate c2 input);
  Alcotest.(check value_testable) "same emulation" (P.emulate c1 input)
    (P.emulate c2 input)

(* Same replay requirement for the transform pass: [df 1] serialises into a
   derived sequential fold registered during normalization. *)
let test_transform_replay_across_tables () =
  let src =
    {|external sq : int -> int
external plus : int -> int -> int
let main = fun xs -> df 1 sq plus 0 xs|}
  in
  let cache = Passes.create_cache () in
  let input = V.List [ V.Int 2; V.Int 3 ] in
  let c1 = P.compile_source ~optimize:true ~cache ~table:(simple_table ()) src in
  let c2 = P.compile_source ~optimize:true ~cache ~table:(simple_table ()) src in
  Alcotest.(check bool) "second compile fully cached" true
    (List.for_all (fun r -> r.Stage.cached) (P.reports c2));
  Alcotest.(check value_testable) "replayed serialisation evaluates"
    (V.Int 13) (P.emulate c2 input);
  Alcotest.(check value_testable) "same emulation" (P.emulate c1 input)
    (P.emulate c2 input)

(* The persistent store: a fresh cache (as a new process would have) over
   the same store directory starts warm, and the artifacts still resolve
   against a freshly constructed table. *)
let test_store_warm_start () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "skipper-test-passes-store.%d" (Unix.getpid ()))
  in
  let store () =
    Support.Store.open_store ~dir ~stamp:Passes.artifact_format ()
  in
  let input = V.List [ V.Int 1; V.Int 2; V.Int 3 ] in
  let cold = Passes.create_cache ~store:(store ()) () in
  let c1 = P.compile_source ~cache:cold ~table:(simple_table ()) wrapper_src in
  let _, cold_misses = Passes.cache_stats cold in
  Alcotest.(check int) "cold compile ran the front end" nfrontend cold_misses;
  let warm = Passes.create_cache ~store:(store ()) () in
  let c2 = P.compile_source ~cache:warm ~table:(simple_table ()) wrapper_src in
  let warm_hits, warm_misses = Passes.cache_stats warm in
  Alcotest.(check int) "warm compile all hits" nfrontend warm_hits;
  Alcotest.(check int) "warm compile no misses" 0 warm_misses;
  Alcotest.(check int) "every hit came from the store" nfrontend
    (Passes.store_hits warm);
  Alcotest.(check value_testable) "same emulation" (P.emulate c1 input)
    (P.emulate c2 input)

let test_cached_compile_is_equivalent () =
  let cache = Passes.create_cache () in
  let table = simple_table () in
  let input = V.List (List.init 7 (fun i -> V.Int i)) in
  let c1 = P.compile_source ~cache ~table simple_src in
  let c2 = P.compile_source ~cache ~table simple_src in
  Alcotest.(check value_testable) "same emulation" (P.emulate c1 input)
    (P.emulate c2 input);
  Alcotest.(check bool) "second compile fully cached" true
    (List.for_all (fun r -> r.Stage.cached) (P.reports c2));
  match P.check_equivalence ~input c2 (Archi.ring 4) with
  | Ok v -> Alcotest.(check value_testable) "sum of squares" (V.Int 91) v
  | Error m -> Alcotest.fail m

(* The bounded memory: random compile sequences over more distinct
   (spec, frames) keys than its budget holds, all through one memory. Every
   compile must build what a fresh cache builds, count one hit or miss per
   front-end stage, and leave the memory within its budget. *)

let specs_dir =
  (* dune runs tests in _build/default/test; the sources are two levels up. *)
  let rec find dir =
    let candidate = Filename.concat dir "specs" in
    if Sys.file_exists candidate && Sys.is_directory candidate then candidate
    else
      let parent = Filename.dirname dir in
      if parent = dir then failwith "specs/ not found" else find parent
  in
  lazy (find (Sys.getcwd ()))

(* Each spec under specs/ with the function table its app registers. *)
let spec_tables =
  let registered register () =
    let t = Skel.Funtable.create () in
    register t;
    t
  in
  let road t =
    Apps.Road.register ~width:512 ~height:512 t;
    Skel.Funtable.register t "zero_lane" ~arity:0 ~cost:(fun _ -> 1.0)
      (fun _ ->
        Apps.Road.lane_to_value
          { Apps.Road.offset = 0.0; slope = 0.0; confidence = 0.0 })
  in
  [
    ("ccl", registered Apps.Ccl_scm.register);
    ("expgain", registered Apps.Stateful.register);
    ("histacc", registered Apps.Stateful.register);
    ("ownerpeak", registered Apps.Stateful.register);
    ("quadtree", registered Apps.Quadtree.register);
    ("resmooth", registered Apps.Stateful.register);
    ("road", registered road);
    ("tracking", fun () -> Tracking.Funcs.table Tracking.Funcs.default_config);
  ]

let spec_sources =
  lazy
    (Array.of_list
       (List.map
          (fun (name, table) ->
            let path = Filename.concat (Lazy.force specs_dir) (name ^ ".mls") in
            (name, table, In_channel.with_open_bin path In_channel.input_all))
          spec_tables))

let max_key_frames = 100

(* A compile's graph fingerprint and printed IR. *)
let built c =
  ( Stage.fingerprint (Stage.Graph c.P.graph),
    Format.asprintf "%a" Ir.pp_program c.P.program )

(* What a fresh cache builds for a key, computed once per key. *)
let fresh_builds = Hashtbl.create 1024

let fresh_build (spec, frames) =
  match Hashtbl.find_opt fresh_builds (spec, frames) with
  | Some b -> b
  | None ->
      let _, table, src = (Lazy.force spec_sources).(spec) in
      let b =
        built
          (P.compile_source ~frames ~cache:(Passes.create_cache ())
             ~table:(table ()) src)
      in
      Hashtbl.replace fresh_builds (spec, frames) b;
      b

(* 700 distinct keys, past the budget (a key's extract, transform and
   expand entries take 300-800 words), in random order, with a few hot
   keys repeated between them so that hits happen too. *)
let key_sequence =
  QCheck.Gen.(
    let nspecs = List.length spec_tables in
    let all =
      List.concat_map
        (fun spec -> List.init max_key_frames (fun f -> (spec, f + 1)))
        (List.init nspecs Fun.id)
    in
    let hot = map2 (fun s f -> (s, f)) (int_bound (nspecs - 1)) (int_range 1 2) in
    shuffle_l all >>= fun keys ->
    let wide = List.filteri (fun i _ -> i < 700) keys in
    list_repeat 300 hot >>= fun hots -> shuffle_l (wide @ hots))

let prop_bounded_memory =
  QCheck.Test.make ~name:"a bounded memory never changes what compiles build"
    ~count:2
    (QCheck.make key_sequence)
    (fun keys ->
      let memory = Passes.create_memory () in
      List.iter
        (fun ((spec, frames) as key) ->
          let name, table, src = (Lazy.force spec_sources).(spec) in
          let cache = Passes.create_cache ~memory () in
          let c = P.compile_source ~frames ~cache ~table:(table ()) src in
          let hits, misses = Passes.cache_stats cache in
          if hits + misses <> nfrontend then
            QCheck.Test.fail_reportf "%s/%d: %d hits + %d misses" name frames
              hits misses;
          if built c <> fresh_build key then
            QCheck.Test.fail_reportf "%s/%d: differs from a fresh-cache compile"
              name frames;
          let m = Passes.memory_stats memory in
          if m.Passes.words > Passes.memory_budget_words then
            QCheck.Test.fail_reportf "%s/%d: memory holds %d words, budget %d"
              name frames m.Passes.words Passes.memory_budget_words)
        keys;
      (Passes.memory_stats memory).Passes.evictions > 0)

(* ------------------------------------------------------------------ *)
(* Stage dumps                                                         *)

let test_dump_stages () =
  let c = P.compile_source ~table:(simple_table ()) simple_src in
  (match P.dump_stage c "typecheck" with
  | Ok text ->
      Alcotest.(check bool) "schemes listed" true
        (Astring.String.is_infix ~affix:"val main :" text)
  | Error m -> Alcotest.fail m);
  (match P.dump_stage c "expand" with
  | Ok text ->
      Alcotest.(check bool) "dot graph" true
        (Astring.String.is_prefix ~affix:"digraph" text)
  | Error m -> Alcotest.fail m);
  (match P.dump_stage ~arch:(Archi.ring 4) c "map" with
  | Ok text ->
      Alcotest.(check bool) "schedule summary" true
        (Astring.String.is_infix ~affix:"schedule" text)
  | Error m -> Alcotest.fail m);
  (match P.dump_stage c "map" with
  | Ok _ -> Alcotest.fail "map without an architecture should fail"
  | Error m ->
      Alcotest.(check bool) "asks for an architecture" true
        (Astring.String.is_infix ~affix:"architecture" m));
  match P.dump_stage c "nosuch" with
  | Ok _ -> Alcotest.fail "unknown stage should fail"
  | Error m ->
      Alcotest.(check bool) "lists stages" true
        (Astring.String.is_infix ~affix:"parse" m)

(* A back-end dump of a program with no input is an [Error], not a raised
   [Compile_error]. *)
let test_dump_simulate_without_input () =
  let c =
    P.compile_ir ~table:(simple_table ()) (Ir.program "p" (Ir.Seq "sq"))
  in
  match P.dump_stage ~arch:(Archi.ring 2) c "simulate" with
  | Ok _ -> Alcotest.fail "simulate without an input should fail"
  | Error m ->
      Alcotest.(check string) "asks for an input"
        "program p needs an explicit input value" m
  | exception e ->
      Alcotest.failf "dump_stage raised %s" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Pins: the observable bytes of the stage driver — every stage dump, the
   report sequence across compile/map/execute/emit and its cached
   replays, and the on-disk cache keys — recorded before the driver was
   rewritten and required to stay put.                                  *)

let md5 s = Digest.to_hex (Digest.string s)

(* A fresh per-process directory under the temp dir, emptied first. *)
let fresh_dir name =
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s.%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  dir

(* Derived names are minted per compile, so two compiles running on two
   domains at once name their wrappers exactly as a lone compile does.
   Every round starts both jobs together; a counter shared by the compiles
   of one process would hand them different suffixes. *)
let tracking_extract_dump () =
  let config = Tracking.Funcs.default_config in
  let c =
    P.compile_source ~frames:3 ~table:(Tracking.Funcs.table config)
      (Tracking.Funcs.source config)
  in
  match P.dump_stage c "extract" with
  | Ok text -> text
  | Error m -> Alcotest.failf "dump extract: %s" m

let test_pooled_compiles_name_alike () =
  let lone = Support.Domain_pool.run ~jobs:1 [ tracking_extract_dump ] in
  for _ = 1 to 20 do
    let pooled =
      Support.Domain_pool.run ~jobs:2 [ tracking_extract_dump; tracking_extract_dump ]
    in
    Alcotest.(check (list string)) "pooled dumps equal a --jobs 1 compile"
      (lone @ lone) pooled
  done

let pin_stage_names =
  [
    "parse"; "typecheck"; "extract"; "transform"; "expand"; "cost"; "map";
    "emit"; "simulate";
  ]

let test_pin_dumps () =
  let config = Tracking.Funcs.default_config in
  let c =
    P.compile_source ~frames:3 ~table:(Tracking.Funcs.table config)
      (Tracking.Funcs.source config)
  in
  let dumps =
    List.map
      (fun name ->
        match P.dump_stage ~arch:(Archi.ring 4) c name with
        | Ok text ->
            Printf.sprintf "%s %d %s" name (String.length text) (md5 text)
        | Error m -> Alcotest.failf "dump %s: %s" name m)
      pin_stage_names
  in
  Alcotest.(check (list string)) "stage dumps" 
    [
      "parse 669 8798b3b95aaacf38f44c1b3d4709824f";
      "typecheck 392 59858ac1a899b49753bf3ce02c3bfab3";
      "extract 200 c0bc78b4f48364e310bc638006593364";
      "transform 200 c0bc78b4f48364e310bc638006593364";
      "expand 1424 02c348ff01f1b479a29c0257cf8cc0ed";
      "cost 871 624b1657736f48cd783bb9a3df4029bf";
      "map 467 5b862ed92f1ec163a21731f5a182e689";
      "emit 3024 b7a0d17487b61056ea2fa781ae7656b2";
      "simulate 2751 43fb3de5b0e58eed1900b43b9d9edf45";
    ]
    dumps;
  let error ?arch c name =
    match P.dump_stage ?arch c name with
    | Ok _ -> Alcotest.failf "dump %s should fail" name
    | Error m -> m
  in
  Alcotest.(check string) "unknown stage"
    "unknown stage \"nosuch\" (stages: parse, typecheck, extract, \
     transform, expand, cost, map, emit, simulate)"
    (error c "nosuch");
  Alcotest.(check string) "map without an architecture"
    "stage map needs a target architecture (it was not run at compile time)"
    (error c "map");
  let ir =
    P.compile_ir ~table:(simple_table ())
      (Ir.program "p" (Ir.Seq "sq"))
  in
  Alcotest.(check string) "front-end stage of an embedded program"
    "stage parse was not run for this program (front-end stages are only \
     recorded when compiling from source)"
    (error ~arch:(Archi.ring 4) ir "parse");
  Alcotest.(check string) "front-end stage without an architecture"
    "stage extract needs a target architecture (it was not run at compile \
     time)"
    (error ir "extract")

let report_line r =
  Printf.sprintf "%s %d %s %b %s" r.Stage.pass r.Stage.size r.Stage.metric
    r.Stage.cached r.Stage.detail

let test_pin_reports () =
  let dir = fresh_dir "skipper-test-passes-pin-reports" in
  let store () =
    Support.Store.open_store ~dir ~stamp:Passes.artifact_format ()
  in
  let cache = Passes.create_cache ~store:(store ()) () in
  let arch = Archi.ring 4 in
  let input = V.List [ V.Int 1; V.Int 2; V.Int 3 ] in
  let drive cache =
    let c = P.compile_source ~frames:2 ~cache ~table:(simple_table ()) wrapper_src in
    let s = P.map ~strategy:"throughput" c arch in
    ignore (P.execute ~input c arch);
    ignore (P.macro_code c s);
    List.map report_line (P.reports c)
  in
  Alcotest.(check (list string)) "cold compile, map, execute, emit"
    
    [
      "parse 3 bindings false ";
      "typecheck 3 schemes false ";
      "extract 3 ir nodes false ";
      "transform 3 ir nodes false disabled";
      "expand 12 procs+chans false ";
      "cost 12 procs+chans false default model";
      "map 11 slots false ring-4";
      "cost 12 procs+chans false default model";
      "map 12 slots false ring-4";
      "simulate 2 frames false ";
      "emit 49 lines false ";
    ] (drive cache);
  Alcotest.(check (list string)) "memoized recompile" 
    [
      "parse 3 bindings true memoized";
      "typecheck 3 schemes true memoized";
      "extract 3 ir nodes true memoized";
      "transform 3 ir nodes true memoized";
      "expand 12 procs+chans true memoized";
      "cost 12 procs+chans false default model";
      "map 11 slots false ring-4";
      "cost 12 procs+chans false default model";
      "map 12 slots false ring-4";
      "simulate 2 frames false ";
      "emit 49 lines false ";
    ] (drive cache);
  Alcotest.(check (list string)) "store-only recompile" 
    [
      "parse 3 bindings true store";
      "typecheck 3 schemes true store";
      "extract 3 ir nodes true store";
      "transform 3 ir nodes true store";
      "expand 12 procs+chans true store";
      "cost 12 procs+chans false default model";
      "map 11 slots false ring-4";
      "cost 12 procs+chans false default model";
      "map 12 slots false ring-4";
      "simulate 2 frames false ";
      "emit 49 lines false ";
    ]
    (drive (Passes.create_cache ~store:(store ()) ()))

let test_pin_cache_keys () =
  let dir = fresh_dir "skipper-test-passes-pin-keys" in
  let cache =
    Passes.create_cache
      ~store:(Support.Store.open_store ~dir ~stamp:Passes.artifact_format ())
      ()
  in
  let compile ?optimize frames =
    ignore
      (P.compile_source ?optimize ~frames ~cache ~table:(simple_table ())
         simple_src)
  in
  compile 1;
  compile 2;
  compile ~optimize:true 1;
  let objects = Filename.concat dir "objects" in
  let names =
    Array.to_list (Sys.readdir objects)
    |> List.concat_map (fun sub ->
           Array.to_list (Sys.readdir (Filename.concat objects sub)))
    |> List.sort compare
  in
  Alcotest.(check (list string)) "store object names" 
    [
      "05e20a2091f0ffd3eba1b959b7d08b59";
      "12ec756b74277c04e0fb1c6f03e44968";
      "199d33a366089affb0e2e2c1759070c8";
      "224cc13121483bd63f08187699f8cee7";
      "379cdf7166aad0d135a07bd74260b536";
      "3fa26c46aa8b4241d7c1da422008c905";
      "4321ac5dba6b4375e833bb9bb2c563fb";
      "6d26056a4e80069ada9e6b5144495d9e";
      "81bffd9c1c85e410435fc1d887b32911";
      "ebe67cb82639a318fd373f26b22d68ca";
    ] names

(* ------------------------------------------------------------------ *)
(* Optimized/unoptimized equivalence on random skeletal programs        *)

let property_table () =
  Skel.Funtable.of_list
    [
      ("inc", 1, (fun v -> V.Int (V.to_int v + 1)), fun _ -> 1000.0);
      ("dbl", 1, (fun v -> V.Int (2 * V.to_int v)), fun _ -> 2000.0);
      ( "enlist",
        1,
        (fun v ->
          let n = V.to_int v in
          V.List [ V.Int n; V.Int (n + 1); V.Int (n + 2) ]),
        fun _ -> 500.0 );
      ( "add",
        2,
        (fun v ->
          let a, b = V.to_pair v in
          V.Int (V.to_int a + V.to_int b)),
        fun _ -> 100.0 );
      ( "replicate",
        2,
        (fun v ->
          match v with
          | V.Tuple [ V.Int n; x ] -> V.List (List.init n (fun _ -> x))
          | _ -> raise (V.Type_error "replicate")),
        fun _ -> 100.0 );
      ( "sum_list",
        1,
        (fun v -> V.Int (List.fold_left (fun a x -> a + V.to_int x) 0 (V.to_list v))),
        fun _ -> 100.0 );
      ( "halve",
        1,
        (fun v ->
          let n = V.to_int v in
          if n > 3 then V.Tuple [ V.List [ V.Int (n / 2); V.Int ((n / 2) - 1) ]; V.Int 0 ]
          else V.Tuple [ V.List []; V.Int n ]),
        fun _ -> 500.0 );
    ]

(* Each generated unit maps an int to an int, so arbitrary chains compose. *)
let unit_gen =
  QCheck.Gen.(
    oneof
      [
        return (Ir.Seq "inc");
        return (Ir.Seq "dbl");
        map
          (fun n ->
            Ir.Pipe
              [
                Ir.Seq "enlist";
                Ir.Df { nworkers = 1 + n; comp = "inc"; acc = "add"; init = V.Int 0; state = Ir.Stateless };
              ])
          (int_bound 3);
        map
          (fun n ->
            Ir.Scm
              {
                nparts = 1 + n;
                split = "replicate";
                compute = "dbl";
                merge = "sum_list";
              })
          (int_bound 3);
        map
          (fun n ->
            Ir.Pipe
              [
                Ir.Seq "enlist";
                Ir.Tf { nworkers = 1 + n; work = "halve"; acc = "add"; init = V.Int 0 };
              ])
          (int_bound 2);
      ])

let program_gen =
  QCheck.Gen.(
    map
      (fun units -> Ir.program "prop" (Ir.Pipe units))
      (list_size (int_range 1 4) unit_gen))

let arbitrary_program =
  QCheck.make program_gen ~print:(fun p ->
      Format.asprintf "%a" Ir.pp_program p)

let prop_optimized_pipeline_equivalent =
  QCheck.Test.make
    ~name:"optimized and unoptimized pipelines are emulation-equivalent"
    ~count:60
    (QCheck.pair arbitrary_program (QCheck.int_bound 5))
    (fun (program, seed) ->
      let input = V.Int seed in
      let plain = P.compile_ir ~table:(property_table ()) program in
      let optimized =
        P.compile_ir ~optimize:true ~table:(property_table ()) program
      in
      V.equal (P.emulate plain input) (P.emulate optimized input))

let prop_optimized_executive_equivalent =
  QCheck.Test.make
    ~name:"optimized staged path matches the executive" ~count:15
    (QCheck.pair arbitrary_program (QCheck.int_bound 5))
    (fun (program, seed) ->
      let input = V.Int seed in
      let optimized =
        P.compile_ir ~optimize:true ~table:(property_table ()) program
      in
      match P.check_equivalence ~input optimized (Archi.ring 4) with
      | Ok _ -> true
      | Error m -> QCheck.Test.fail_report m)

let () =
  Alcotest.run "passes"
    [
      ( "reports",
        [
          Alcotest.test_case "front-end coverage" `Quick test_reports_cover_frontend;
          Alcotest.test_case "accumulate across calls" `Quick
            test_reports_accumulate_across_calls;
          Alcotest.test_case "bounded" `Quick test_reports_bounded;
          Alcotest.test_case "timings render" `Quick test_timings_render;
        ] );
      ( "cache",
        [
          Alcotest.test_case "ring variants reuse front end" `Quick
            test_variant_compiles_reuse_frontend;
          Alcotest.test_case "edited source invalidates" `Quick
            test_edited_source_invalidates;
          Alcotest.test_case "option change invalidates downstream" `Quick
            test_option_change_invalidates_downstream;
          Alcotest.test_case "equal tables share" `Quick test_equal_tables_share;
          Alcotest.test_case "different registrations invalidate" `Quick
            test_different_registrations_invalidate;
          Alcotest.test_case "wrapper replay across tables" `Quick
            test_wrapper_replay_across_tables;
          Alcotest.test_case "transform replay across tables" `Quick
            test_transform_replay_across_tables;
          Alcotest.test_case "store warm start" `Quick test_store_warm_start;
          Alcotest.test_case "cached compile equivalent" `Quick
            test_cached_compile_is_equivalent;
        ] );
      ( "dumps",
        [
          Alcotest.test_case "dump stages" `Quick test_dump_stages;
          Alcotest.test_case "simulate without input is an error" `Quick
            test_dump_simulate_without_input;
        ] );
      ( "pins",
        [
          Alcotest.test_case "stage dumps and errors" `Quick test_pin_dumps;
          Alcotest.test_case "report sequence" `Quick test_pin_reports;
          Alcotest.test_case "cache keys" `Quick test_pin_cache_keys;
          Alcotest.test_case "pooled compiles name alike" `Quick
            test_pooled_compiles_name_alike;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_bounded_memory;
          QCheck_alcotest.to_alcotest prop_optimized_pipeline_equivalent;
          QCheck_alcotest.to_alcotest prop_optimized_executive_equivalent;
        ] );
    ]
