type strategy = string

exception Pass_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Pass_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Memoization cache                                                   *)

(* Bump whenever the marshalled shape of cached front-end artifacts changes
   (Stage.artifact constructors, Funtable.derivation, or anything they
   embed): persisted entries written under another stamp read as misses. *)
let artifact_format = "skipper-artifact-v2"

(* A cached pass result is the artifact plus the derived-function
   registrations the producing pass installed into its table — pure data
   (Funtable.derivation), replayed into the consuming table on a hit so the
   artifact's references resolve. This is what lets a hit cross tables and
   processes: the old scheme keyed on the table's physical identity
   precisely because these side effects were unrecorded closures. *)
type cached_entry = {
  artifact : Stage.artifact;
  derivations : (string * Skel.Funtable.derivation) list;
}

type cache = {
  entries : (string, cached_entry) Hashtbl.t;
  store : Support.Store.t option;
  mutable hits : int;
  mutable misses : int;
  mutable store_hits : int;
}

let create_cache ?store () =
  { entries = Hashtbl.create 64; store; hits = 0; misses = 0; store_hits = 0 }

let cache_stats c = (c.hits, c.misses)
let store_hits c = c.store_hits
let reset_cache_stats c =
  c.hits <- 0;
  c.misses <- 0;
  c.store_hits <- 0

(* ------------------------------------------------------------------ *)
(* Context                                                             *)

type ctx = {
  table : Skel.Funtable.t;
  frames : int;
  optimize : bool;
  df_state : Skel.Ir.state_mode option;
      (* compile-time override: rewrite every Df stage to this mode *)
  arch : Archi.t option;
  strategy : strategy;
  cost_model : Syndex.Cost.t option;
  input : Skel.Value.t option;
  input_period : float option;
  trace : bool;
  faults : (int * float) list;  (* processor halts, (proc, at) *)
  restores : (int * float) list;
  link_faults : Machine.Sim.link_fault list;
  recovery : Executive.recovery option;
  checkpoint_every : int option;
  cache : cache option;
  mutable key : string;  (* running content hash; "" until the first pass *)
  reports : Stage.report list ref;  (* newest first; shared with retargets *)
}

let make_ctx ?cache ?(frames = 1) ?(optimize = false) ?df_state table =
  {
    table;
    frames;
    optimize;
    df_state;
    arch = None;
    strategy = "canonical";
    cost_model = None;
    input = None;
    input_period = None;
    trace = false;
    faults = [];
    restores = [];
    link_faults = [];
    recovery = None;
    checkpoint_every = None;
    cache;
    key = "";
    reports = ref [];
  }

let retarget ?cost ?input ?input_period ?(trace = false) ?(faults = [])
    ?(restores = []) ?(link_faults = []) ?recovery ?checkpoint_every ~strategy
    ctx arch =
  {
    ctx with
    arch = Some arch;
    strategy;
    cost_model = cost;
    input = (match input with Some _ -> input | None -> ctx.input);
    input_period;
    trace;
    faults;
    restores;
    link_faults;
    recovery;
    checkpoint_every;
  }

let reports ctx = List.rev !(ctx.reports)

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)

type pass = {
  name : string;
  cacheable : bool;
  token : ctx -> string;  (* the options this pass reads, for the key *)
  apply : ctx -> Stage.artifact -> Stage.artifact * string;
}

let pass_name p = p.name
let no_token _ = ""

let mismatch pass art =
  error "pass %s: unexpected %s artifact" pass (Stage.kind art)

let lift = function Ok v -> v | Error msg -> error "%s" msg

let parse =
  {
    name = "parse";
    cacheable = true;
    token = no_token;
    apply =
      (fun _ctx -> function
        | Stage.Source src -> (Stage.Ast (lift (Minicaml.Stages.parse src)), "")
        | art -> mismatch "parse" art);
  }

let typecheck =
  {
    name = "typecheck";
    cacheable = true;
    token = no_token;
    apply =
      (fun _ctx -> function
        | Stage.Ast ast ->
            let schemes = lift (Minicaml.Stages.typecheck ast) in
            (Stage.Typed (ast, schemes), "")
        | art -> mismatch "typecheck" art);
  }

let extract =
  {
    name = "extract";
    cacheable = true;
    token = (fun ctx -> string_of_int ctx.frames);
    apply =
      (fun ctx -> function
        | Stage.Typed (ast, _) | Stage.Ast ast ->
            let ex =
              lift (Minicaml.Stages.extract ~frames:ctx.frames ctx.table ast)
            in
            ( Stage.Ir (ex.Minicaml.Extract.program, ex.Minicaml.Extract.input),
              "" )
        | art -> mismatch "extract" art);
  }

let transform =
  {
    name = "transform";
    cacheable = true;
    token =
      (fun ctx ->
        Printf.sprintf "%b/%s" ctx.optimize
          (match ctx.df_state with
          | None -> "-"
          | Some m -> Skel.Ir.state_mode_name m));
    apply =
      (fun ctx -> function
        | Stage.Ir (prog, input) ->
            (* The --df-state override rewrites every farm's declared mode
               before normalisation; the program's init must already have
               the target mode's shape (validate reports otherwise). *)
            let prog, restate =
              match ctx.df_state with
              | None -> (prog, "")
              | Some mode ->
                  let prog =
                    {
                      prog with
                      Skel.Ir.body =
                        Skel.Ir.with_state_mode mode prog.Skel.Ir.body;
                    }
                  in
                  (match Skel.Ir.validate ctx.table prog with
                  | Ok () -> ()
                  | Error msg ->
                      error "df-state %s: %s" (Skel.Ir.state_mode_name mode)
                        msg);
                  (prog, "df-state=" ^ Skel.Ir.state_mode_name mode)
            in
            if not ctx.optimize then
              ( Stage.Ir (prog, input),
                if restate = "" then "disabled" else restate )
            else
              let prog', applied = Skel.Transform.normalize ctx.table prog in
              let summary = Skel.Transform.applied_summary applied in
              ( Stage.Ir (prog', input),
                if restate = "" then summary else restate ^ "; " ^ summary )
        | art -> mismatch "transform" art);
  }

let expand =
  {
    name = "expand";
    cacheable = true;
    token = no_token;
    apply =
      (fun ctx -> function
        | Stage.Ir (prog, _) -> (
            try (Stage.Graph (Procnet.Expand.expand ctx.table prog), "")
            with Procnet.Expand.Expansion_error msg -> error "expansion: %s" msg)
        | art -> mismatch "expand" art);
  }

let cost =
  {
    name = "cost";
    cacheable = false;
    token = no_token;
    apply =
      (fun ctx -> function
        | Stage.Graph g ->
            let model, detail =
              match ctx.cost_model with
              | Some c -> (c, "user model")
              | None -> (Syndex.Cost.make (), "default model")
            in
            (Stage.Costed (g, model), detail)
        | art -> mismatch "cost" art);
  }

let the_arch pass ctx =
  match ctx.arch with
  | Some arch -> arch
  | None -> error "pass %s: no target architecture (retarget the context)" pass

(* Strategy lookup against the mapper registry: the single source of truth
   for valid names (CLI help and this error message both derive from it). *)
let mapper_of strategy =
  match Syndex.Mapper.find strategy with
  | Some m -> m
  | None ->
      error "unknown mapping strategy %S (expected one of %s)" strategy
        (String.concat ", " (Syndex.Mapper.names ()))

let map =
  {
    name = "map";
    cacheable = false;
    token =
      (fun ctx ->
        match ctx.arch with
        | Some arch ->
            Printf.sprintf "%s/%d/%s" (Archi.name arch) (Archi.nprocs arch)
              ctx.strategy
        | None -> ctx.strategy);
    apply =
      (fun ctx -> function
        | Stage.Costed (g, model) ->
            let arch = the_arch "map" ctx in
            let mapper = mapper_of ctx.strategy in
            let schedule = Syndex.Mapper.map mapper model arch g in
            (Stage.Schedule schedule, Archi.name arch)
        | art -> mismatch "map" art);
  }

let emit =
  {
    name = "emit";
    cacheable = false;
    token = no_token;
    apply =
      (fun _ctx -> function
        | Stage.Schedule s ->
            ( Stage.Macro
                (Executive.Macro.emit s.Syndex.Schedule.graph
                   ~placement:s.Syndex.Schedule.placement
                   ~arch:s.Syndex.Schedule.arch),
              "" )
        | art -> mismatch "emit" art);
  }

let simulate =
  {
    name = "simulate";
    cacheable = false;
    token = no_token;
    apply =
      (fun ctx -> function
        | Stage.Schedule s ->
            let input =
              match ctx.input with
              | Some v -> v
              | None -> error "pass simulate: no input value"
            in
            let r =
              Executive.run ~trace:ctx.trace ?input_period:ctx.input_period
                ~faults:ctx.faults ~restores:ctx.restores
                ~link_faults:ctx.link_faults ?recovery:ctx.recovery
                ?checkpoint_every:ctx.checkpoint_every
                ~table:ctx.table ~arch:s.Syndex.Schedule.arch
                ~placement:s.Syndex.Schedule.placement
                ~graph:s.Syndex.Schedule.graph ~frames:ctx.frames ~input ()
            in
            let detail =
              match r.Executive.outcome with
              | Executive.Completed -> ""
              | Executive.Stalled { collected; expected } ->
                  Printf.sprintf "stalled at %d/%d" collected expected
            in
            (Stage.Result r, detail)
        | art -> mismatch "simulate" art);
  }

let frontend = [ parse; typecheck; extract; transform; expand ]
let all = frontend @ [ cost; map; emit; simulate ]
let find name = List.find_opt (fun p -> p.name = name) all
let names = List.map (fun p -> p.name) all

(* ------------------------------------------------------------------ *)
(* Running                                                             *)

let record ctx pass ~start ~wall ~cached ~detail art =
  let size, metric = Stage.size art in
  ctx.reports :=
    { Stage.pass = pass.name; start; wall; size; metric; cached; detail }
    :: !(ctx.reports)

let advance_key ctx pass art =
  (* Seed the chain lazily with the entry artifact's digest and the table's
     content digest (base registrations only — see Funtable.digest), then
     extend per pass. Content, not identity: two independently constructed
     tables with the same registrations produce the same keys, which is
     what makes the cache meaningful across contexts and processes. *)
  if ctx.key = "" then
    ctx.key <- Stage.fingerprint art ^ "@" ^ Skel.Funtable.digest ctx.table;
  ctx.key <-
    Digest.to_hex
      (Digest.string
         (String.concat "\x00" [ ctx.key; pass.name; pass.token ctx ]))

(* Install a cached entry's table side effects. False when the current
   table already holds one of the names with a different recipe — the
   caller treats that as a miss and re-runs the pass (whose gensyms skip
   occupied names), so a collision degrades performance, never results. *)
let try_replay table entry =
  match Skel.Funtable.replay table entry.derivations with
  | () -> true
  | exception (Invalid_argument _ | Failure _) -> false

let store_find cache key =
  match cache.store with
  | None -> None
  | Some store -> (
      match Support.Store.get store ~key with
      | None -> None
      | Some payload -> (
          (* The store validated stamp and payload digest, so this is a
             string some skipper with our artifact format marshalled; a
             Marshal failure still only costs us the hit. *)
          try Some (Marshal.from_string (payload : string) 0 : cached_entry)
          with _ -> None))

let store_save cache key entry =
  match cache.store with
  | None -> ()
  | Some store ->
      Support.Store.put store ~key (Marshal.to_string entry [])

let run_uncached ctx pass art =
  let t0 = Unix.gettimeofday () in
  let out, detail = pass.apply ctx art in
  let wall = Unix.gettimeofday () -. t0 in
  record ctx pass ~start:t0 ~wall ~cached:false ~detail out;
  (out, wall, detail)

let run_pass ctx pass art =
  advance_key ctx pass art;
  match ctx.cache with
  | Some cache when pass.cacheable -> (
      let hit entry detail =
        record ctx pass
          ~start:(Unix.gettimeofday ())
          ~wall:0.0 ~cached:true ~detail entry.artifact;
        entry.artifact
      in
      let miss () =
        cache.misses <- cache.misses + 1;
        let before = List.length (Skel.Funtable.derivations ctx.table) in
        let t0 = Unix.gettimeofday () in
        let out, detail = pass.apply ctx art in
        let wall = Unix.gettimeofday () -. t0 in
        let derivations =
          (* Exactly the registrations this pass performed: the log only
             grows, so they are the suffix past the pre-pass length. *)
          List.filteri
            (fun i _ -> i >= before)
            (Skel.Funtable.derivations ctx.table)
        in
        let entry = { artifact = out; derivations } in
        Hashtbl.replace cache.entries ctx.key entry;
        store_save cache ctx.key entry;
        record ctx pass ~start:t0 ~wall ~cached:false ~detail out;
        out
      in
      match Hashtbl.find_opt cache.entries ctx.key with
      | Some entry when try_replay ctx.table entry ->
          cache.hits <- cache.hits + 1;
          hit entry "memoized"
      | Some _ -> miss ()
      | None -> (
          match store_find cache ctx.key with
          | Some entry when try_replay ctx.table entry ->
              cache.hits <- cache.hits + 1;
              cache.store_hits <- cache.store_hits + 1;
              Hashtbl.replace cache.entries ctx.key entry;
              hit entry "store"
          | _ -> miss ()))
  | _ ->
      let out, _, _ = run_uncached ctx pass art in
      out

let run ctx passes art =
  List.fold_left (fun a p -> run_pass ctx p a) art passes

let run_trace ctx passes art =
  let _, rev_outputs =
    List.fold_left
      (fun (a, acc) p ->
        let out = run_pass ctx p a in
        (out, out :: acc))
      (art, []) passes
  in
  List.rev rev_outputs
