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

(* The memory tier: cached entries by key, under one lock so that compiles
   on several domains share it, bounded by a fixed budget of heap words
   with least-recently-used eviction. A slot's [words] are measured once,
   at insertion, with [Obj.reachable_words] (which walks the block graph
   without writing to it, so a concurrent walk of shared blocks is safe);
   sharing between entries is counted in each, so the bound is
   conservative. [born] and [used] are ticks of one clock: insertion, and
   latest lookup. *)
type slot = {
  entry : cached_entry;
  words : int;
  born : int;
  mutable used : int;
  digest : string option Atomic.t;  (* Stage.fingerprint of a graph artifact *)
}

type memory = {
  lock : Mutex.t;
  slots : (string, slot) Hashtbl.t;
  mutable words : int;
  mutable tick : int;
  mutable horizon : int;  (* lookups see the slots born before it *)
  mutable evictions : int;
}

(* 2 MiB on a 64-bit host: a hundred or more whole compiles of the specs
   under specs/ (a front-end chain is 1.0-2.5 k words), and the store
   behind the memory still answers whatever was evicted. *)
let memory_budget_words = 1 lsl 18

let create_memory () =
  {
    lock = Mutex.create ();
    slots = Hashtbl.create 64;
    words = 0;
    tick = 0;
    horizon = max_int;
    evictions = 0;
  }

type memory_stats = { entries : int; words : int; evictions : int }

let memory_stats m =
  Mutex.protect m.lock (fun () ->
      { entries = Hashtbl.length m.slots; words = m.words; evictions = m.evictions })

let with_snapshot m f =
  Mutex.protect m.lock (fun () -> m.horizon <- m.tick + 1);
  Fun.protect ~finally:(fun () -> Mutex.protect m.lock (fun () -> m.horizon <- max_int)) f

let memory_find m key =
  Mutex.protect m.lock (fun () ->
      match Hashtbl.find_opt m.slots key with
      | Some slot when slot.born < m.horizon ->
          m.tick <- m.tick + 1;
          slot.used <- m.tick;
          Some slot
      | _ -> None)

(* Called with the lock held. Evicts least recently used slots until
   [words] more fit with a quarter of the budget to spare, so that a full
   memory sorts its slots once per quarter budget of insertions rather
   than scanning them on every one. [used] ticks are distinct, so the
   order is total. *)
let make_room (m : memory) words =
  if m.words + words > memory_budget_words then begin
    let target = memory_budget_words - (memory_budget_words / 4) - words in
    Hashtbl.fold (fun key slot acc -> (key, slot) :: acc) m.slots []
    |> List.sort (fun (_, (a : slot)) (_, b) -> Int.compare a.used b.used)
    |> List.iter (fun (key, (slot : slot)) ->
           if m.words > target then begin
             Hashtbl.remove m.slots key;
             m.words <- m.words - slot.words;
             m.evictions <- m.evictions + 1
           end)
  end

(* An entry larger than the whole budget is not kept: the store, or the
   stage, answers it the next time too. *)
let memory_add (m : memory) key entry =
  let words = Obj.reachable_words (Obj.repr entry) in
  if words > memory_budget_words then None
  else
    Mutex.protect m.lock (fun () ->
        (match Hashtbl.find_opt m.slots key with
        | Some (old : slot) ->
            Hashtbl.remove m.slots key;
            m.words <- m.words - old.words
        | None -> ());
        make_room m words;
        m.tick <- m.tick + 1;
        let slot =
          { entry; words; born = m.tick; used = m.tick; digest = Atomic.make None }
        in
        Hashtbl.replace m.slots key slot;
        m.words <- m.words + words;
        Some slot)

type cache = {
  memory : memory;
  store : Support.Store.t option;
  mutable hits : int;
  mutable misses : int;
  mutable store_hits : int;
}

let create_cache ?store ?memory () =
  let memory = match memory with Some m -> m | None -> create_memory () in
  { memory; store; hits = 0; misses = 0; store_hits = 0 }

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
  mutable last : slot option;  (* memory slot of the latest memoized stage *)
  mutable reports : Stage.report list;  (* newest first *)
  mutable kept : int;  (* List.length reports *)
}

(* A program mapped or run again and again (a daemon, a benchmark loop)
   would otherwise keep two reports per call for as long as it lives. *)
let max_reports = 256

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
  { table; cache; key; last = None; reports = []; kept = 0 }

let reports log = List.rev log.reports

let stage ?memo log name wrap work =
  let record ~start ~wall ~cached ~detail out =
    if log.kept < max_reports then begin
      let size, metric = Stage.size (wrap out) in
      log.reports <-
        { Stage.pass = name; start; wall; size; metric; cached; detail }
        :: log.reports;
      log.kept <- log.kept + 1
    end
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
      let hit slot out detail =
        cache.hits <- cache.hits + 1;
        log.last <- slot;
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
        log.last <- memory_add cache.memory log.key entry;
        store_save cache log.key entry;
        out
      in
      (* The memory, then the store, then the stage. *)
      match memory_find cache.memory log.key with
      | Some slot -> (
          match usable slot.entry with
          | Some out -> hit (Some slot) out "memoized"
          | None -> miss ())
      | None -> (
          match store_find cache log.key with
          | None -> miss ()
          | Some entry -> (
              match usable entry with
              | None -> miss ()
              | Some out ->
                  cache.store_hits <- cache.store_hits + 1;
                  hit (memory_add cache.memory log.key entry) out "store")))
  | _ -> run ()

(* The slot's digest stands for the graph it holds, so only that very
   graph (physically) may use it. *)
let fingerprint log art =
  match (log.last, art) with
  | Some ({ entry = { artifact = Stage.Graph g; _ }; _ } as slot), Stage.Graph g'
    when g == g' -> (
      match Atomic.get slot.digest with
      | Some d -> d
      | None ->
          let d = Stage.fingerprint art in
          Atomic.set slot.digest (Some d);
          d)
  | _ -> Stage.fingerprint art
