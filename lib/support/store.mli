(** Persistent content-addressed artifact store.

    An entry is an immutable byte payload under an opaque string key. The
    front-end cache uses it to make compile artifacts survive [skipperc]
    invocations: keys are content hashes of
    (source digest, stage name, stage options, table digest), so equal
    compiles in different processes address the same on-disk entry.

    Layout: one file per entry under [dir]/objects, named by the MD5 of
    the key (keys need not be filesystem-safe). Every entry carries a
    magic, the store's format [stamp], the full key and an MD5 payload
    checksum.

    Invariants:
    - {b Atomicity}: writes land via a temp file in [dir]/tmp plus
      [Unix.rename], so readers never observe a partial entry and
      concurrent writers (domains or processes) race benignly — last
      writer wins.
    - {b Corruption tolerance}: a damaged, truncated, stamp-mismatched or
      foreign entry reads as a miss (counted in [corrupt]), never as an
      exception or a wrong payload.
    - {b Stamping}: the caller's [stamp] versions the payload encoding;
      bumping it orphans (rather than misreads) every old entry.

    All counters are [Atomic.t], so a store may be shared across the
    domain pool and across server clients. *)

type t

type counters = {
  hits : int;
  misses : int;  (** by construction [absent + corrupt + stamp_mismatch] *)
  absent : int;  (** lookups that found no entry file at all *)
  corrupt : int;  (** entries present but unreadable *)
  stamp_mismatch : int;
      (** well-formed entries written under a different format stamp —
          orphaned by a stamp bump, not damaged *)
  writes : int;
  evictions : int;
  bytes_read : int;  (** payload bytes returned by hits *)
  bytes_written : int;  (** payload bytes stored by writes *)
}

val open_store :
  ?dir:string -> ?stamp:string -> ?limit_bytes:int -> unit -> t
(** Opens (creating directories as needed) the store at [dir], defaulting
    to {!default_dir}. [stamp] (default ["skipper-store-v1"]) versions the
    payload format. When [limit_bytes] is given, each write prunes oldest
    entries (by mtime) until the store fits — pruning is best-effort and
    write-side only. *)

val dir : t -> string
val stamp : t -> string

val put : t -> key:string -> string -> unit
(** Stores the payload under [key], overwriting any previous entry. *)

val get : t -> key:string -> string option
(** [None] on absent or unreadable entries; never raises on entry
    content. *)

val mem : t -> key:string -> bool
(** Presence only — does not validate the entry or touch counters.
    Test oracle: [test_store]'s "round-trip" checks with it that a [put]
    left an entry on disk. *)

val counters : t -> counters
