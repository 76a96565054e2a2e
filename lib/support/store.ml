(* On-disk content-addressed artifact store.

   Entries are immutable byte payloads keyed by an opaque string (in
   practice the front-end cache's running content hash). Each entry is one
   file under [dir]/objects/<p>/<name> whose name is the MD5 of the key —
   keys therefore never need to be filesystem-safe — and whose header
   carries a magic, the caller's format stamp, the full key and a payload
   checksum. Writes go through [dir]/tmp + Unix.rename, so concurrent
   writers (domains or whole processes) race benignly: the rename is
   atomic, last writer wins, and a reader only ever sees a complete entry.
   Reads never raise on a damaged entry: any header mismatch, checksum
   failure or truncation counts as [corrupt] and reads as a miss. *)

let magic = "SKIPSTORE1"

type counters = {
  hits : int;
  misses : int;  (** [absent + corrupt + stamp_mismatch] *)
  absent : int;
  corrupt : int;  (** entries present but unreadable (treated as misses) *)
  stamp_mismatch : int;  (** well-formed entries written under another stamp *)
  writes : int;
  evictions : int;
  bytes_read : int;  (** payload bytes returned by hits *)
  bytes_written : int;  (** payload bytes stored by writes *)
}

type t = {
  dir : string;
  stamp : string;
  limit_bytes : int option;
  hits : int Atomic.t;
  absent : int Atomic.t;
  writes : int Atomic.t;
  corrupt : int Atomic.t;
  stamp_mismatch : int Atomic.t;
  evictions : int Atomic.t;
  bytes_read : int Atomic.t;
  bytes_written : int Atomic.t;
}

(* [$XDG_CACHE_HOME/skipper], else [$HOME/.cache/skipper], else a
   directory under the system temp dir. *)
let default_dir () =
  match Sys.getenv_opt "XDG_CACHE_HOME" with
  | Some d when d <> "" -> Filename.concat d "skipper"
  | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" -> Filename.concat (Filename.concat h ".cache") "skipper"
      | _ -> Filename.concat (Filename.get_temp_dir_name ()) "skipper-cache")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let objects_dir t = Filename.concat t.dir "objects"
let tmp_dir t = Filename.concat t.dir "tmp"

let open_store ?dir ?(stamp = "skipper-store-v1") ?limit_bytes () =
  let dir = match dir with Some d -> d | None -> default_dir () in
  let t =
    {
      dir;
      stamp;
      limit_bytes;
      hits = Atomic.make 0;
      absent = Atomic.make 0;
      writes = Atomic.make 0;
      corrupt = Atomic.make 0;
      stamp_mismatch = Atomic.make 0;
      evictions = Atomic.make 0;
      bytes_read = Atomic.make 0;
      bytes_written = Atomic.make 0;
    }
  in
  mkdir_p (objects_dir t);
  mkdir_p (tmp_dir t);
  t

let dir t = t.dir
let stamp t = t.stamp

let counters t =
  let absent = Atomic.get t.absent in
  let corrupt = Atomic.get t.corrupt in
  let stamp_mismatch = Atomic.get t.stamp_mismatch in
  {
    hits = Atomic.get t.hits;
    misses = absent + corrupt + stamp_mismatch;
    absent;
    corrupt;
    stamp_mismatch;
    writes = Atomic.get t.writes;
    evictions = Atomic.get t.evictions;
    bytes_read = Atomic.get t.bytes_read;
    bytes_written = Atomic.get t.bytes_written;
  }

(* Keys are hashed into the file name (two-level fan-out), so arbitrary key
   strings work and directories stay small. *)
let entry_path t ~key =
  let h = Digest.to_hex (Digest.string key) in
  Filename.concat (objects_dir t) (Filename.concat (String.sub h 0 2) h)

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

let unique =
  let n = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add n 1

let render_entry t ~key payload =
  (* Header lines are length-prefixed where content may contain anything. *)
  let b = Buffer.create (String.length payload + 256) in
  Buffer.add_string b magic;
  Buffer.add_char b '\n';
  Buffer.add_string b t.stamp;
  Buffer.add_char b '\n';
  Buffer.add_string b (string_of_int (String.length key));
  Buffer.add_char b '\n';
  Buffer.add_string b key;
  Buffer.add_char b '\n';
  Buffer.add_string b (Digest.to_hex (Digest.string payload));
  Buffer.add_char b '\n';
  Buffer.add_string b (string_of_int (String.length payload));
  Buffer.add_char b '\n';
  Buffer.add_string b payload;
  Buffer.contents b

(* FIFO eviction by mtime: only consulted when a [limit_bytes] was given,
   and only on the write path, so reads stay cheap. *)
let evict_over_limit t limit =
  let files = ref [] in
  let total = ref 0 in
  let objects = objects_dir t in
  Array.iter
    (fun sub ->
      let subdir = Filename.concat objects sub in
      if Sys.is_directory subdir then
        Array.iter
          (fun f ->
            let path = Filename.concat subdir f in
            match Unix.stat path with
            | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                files := (st_mtime, st_size, path) :: !files;
                total := !total + st_size
            | _ | (exception Unix.Unix_error _) -> ())
          (try Sys.readdir subdir with Sys_error _ -> [||]))
    (try Sys.readdir objects with Sys_error _ -> [||]);
  if !total > limit then
    List.iter
      (fun (_, size, path) ->
        if !total > limit then begin
          (try
             Sys.remove path;
             Atomic.incr t.evictions
           with Sys_error _ -> ());
          total := !total - size
        end)
      (List.sort compare !files)

let put t ~key payload =
  let target = entry_path t ~key in
  mkdir_p (Filename.dirname target);
  let tmp =
    Filename.concat (tmp_dir t)
      (Printf.sprintf "put.%d.%d.%d" (Unix.getpid ())
         (Domain.self () :> int)
         (unique ()))
  in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (render_entry t ~key payload));
  Unix.rename tmp target;
  Atomic.incr t.writes;
  ignore (Atomic.fetch_and_add t.bytes_written (String.length payload));
  Option.iter (evict_over_limit t) t.limit_bytes

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

exception Bad_entry
exception Stale_entry
(* [Stale_entry]: magic line fine but the stamp differs — a well-formed
   entry from another format generation, worth counting apart from real
   corruption when deciding whether a cache is damaged or merely old. *)

let read_entry t ~key ic =
  let line () =
    match In_channel.input_line ic with
    | Some l -> l
    | None -> raise Bad_entry
  in
  let exact n =
    if n < 0 then raise Bad_entry;
    match In_channel.really_input_string ic n with
    | Some s -> s
    | None -> raise Bad_entry
  in
  let int_line () =
    match int_of_string_opt (line ()) with
    | Some n -> n
    | None -> raise Bad_entry
  in
  if line () <> magic then raise Bad_entry;
  if line () <> t.stamp then raise Stale_entry;
  let klen = int_line () in
  if exact klen <> key then raise Bad_entry;
  if exact 1 <> "\n" then raise Bad_entry;
  let digest = line () in
  let plen = int_line () in
  let payload = exact plen in
  (* trailing bytes would mean a torn or overlong write *)
  if In_channel.input_char ic <> None then raise Bad_entry;
  if Digest.to_hex (Digest.string payload) <> digest then raise Bad_entry;
  payload

(* Open, then read: no existence check first. With one, an entry that
   another domain's or process's [put] evicts between the check and the
   open read as corrupt. An open file stays readable whatever happens to
   its name afterwards. *)
let get t ~key =
  match Unix.openfile (entry_path t ~key) [ Unix.O_RDONLY; O_CLOEXEC ] 0 with
  | exception Unix.Unix_error ((ENOENT | ENOTDIR), _, _) ->
      Atomic.incr t.absent;
      None
  | exception Unix.Unix_error _ ->
      Atomic.incr t.corrupt;
      None
  | fd -> (
      let ic = Unix.in_channel_of_descr fd in
      match
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> read_entry t ~key ic)
      with
      | payload ->
          Atomic.incr t.hits;
          ignore (Atomic.fetch_and_add t.bytes_read (String.length payload));
          Some payload
      | exception Stale_entry ->
          Atomic.incr t.stamp_mismatch;
          None
      | exception _ ->
          (* a bad entry is a miss, never a crash *)
          Atomic.incr t.corrupt;
          None)

let mem t ~key = Sys.file_exists (entry_path t ~key)
