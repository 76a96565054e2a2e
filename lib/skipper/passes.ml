type strategy = string

exception Pass_error of string

(* ------------------------------------------------------------------ *)
(* Memoization cache                                                   *)

(* Bump whenever the marshalled shape of cached front-end artifacts changes
   (Stage.artifact constructors, Funtable.derivation, or anything they
   embed): persisted entries written under another stamp read as misses. *)
let artifact_format = "skipper-artifact-v2"

(* A cached stage result is the artifact plus the derived-function
   registrations the producing stage installed into its table — pure data
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

(* Install a cached entry's table side effects. False when the current
   table already holds one of the names with a different recipe — the
   caller treats that as a miss and re-runs the stage (whose gensyms skip
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

(* ------------------------------------------------------------------ *)
(* Running stages                                                      *)

type log = {
  table : Skel.Funtable.t;
  cache : cache option;
  mutable key : string;  (* running content hash of the front-end chain *)
  mutable reports : Stage.report list;  (* newest first *)
}

let start ?cache table entry =
  (* Seed the chain with the entry artifact's digest and the table's content
     digest (base registrations only — see Funtable.digest). Content, not
     identity: two independently constructed tables with the same
     registrations produce the same keys, which is what makes the cache
     meaningful across compiles and processes. *)
  let key =
    match cache with
    | None -> ""
    | Some _ -> Stage.fingerprint entry ^ "@" ^ Skel.Funtable.digest table
  in
  { table; cache; key; reports = [] }

let reports log = List.rev log.reports

let stage ?memo log name wrap work =
  let record ~start ~wall ~cached ~detail out =
    let size, metric = Stage.size (wrap out) in
    log.reports <-
      { Stage.pass = name; start; wall; size; metric; cached; detail }
      :: log.reports
  in
  let run () =
    let t0 = Unix.gettimeofday () in
    let out, detail = work () in
    record ~start:t0 ~wall:(Unix.gettimeofday () -. t0) ~cached:false ~detail
      out;
    out
  in
  match (memo, log.cache) with
  | Some (token, unwrap), Some cache -> (
      log.key <-
        Digest.to_hex
          (Digest.string (String.concat "\x00" [ log.key; name; token ]));
      (* An entry is used only when it is this stage's kind of artifact and
         its derivations replay; anything else is a miss. *)
      let usable entry =
        match unwrap entry.artifact with
        | Some out when try_replay log.table entry -> Some out
        | _ -> None
      in
      let hit out detail =
        cache.hits <- cache.hits + 1;
        record ~start:(Unix.gettimeofday ()) ~wall:0.0 ~cached:true ~detail out;
        out
      in
      let miss () =
        cache.misses <- cache.misses + 1;
        let before = List.length (Skel.Funtable.derivations log.table) in
        let out = run () in
        let entry =
          {
            artifact = wrap out;
            (* Exactly the registrations this stage performed: the log only
               grows, so they are the suffix past the pre-stage length. *)
            derivations =
              List.filteri
                (fun i _ -> i >= before)
                (Skel.Funtable.derivations log.table);
          }
        in
        Hashtbl.replace cache.entries log.key entry;
        store_save cache log.key entry;
        out
      in
      match Hashtbl.find_opt cache.entries log.key with
      | Some entry -> (
          match usable entry with
          | Some out -> hit out "memoized"
          | None -> miss ())
      | None -> (
          match store_find cache log.key with
          | None -> miss ()
          | Some entry -> (
              match usable entry with
              | None -> miss ()
              | Some out ->
                  cache.store_hits <- cache.store_hits + 1;
                  Hashtbl.replace cache.entries log.key entry;
                  hit out "store")))
  | _ -> run ()
