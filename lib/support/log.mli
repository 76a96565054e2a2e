(** Structured JSONL logging for long-lived processes.

    One logger renders one JSON object per line and hands it to a sink
    (a channel, a file, or a capture function in tests). Every line carries
    a fixed prefix — a monotonic sequence number, a timestamp, the level
    and the event name — then the caller's fields in caller order, so logs
    are machine-parseable ({!Json.parse} line by line) and greppable.

    Two properties matter for the daemon:
    - {b Domain safety}: sequence numbering and the sink call are atomic
      under an internal mutex, so pool domains may log concurrently without
      tearing lines or duplicating sequence numbers.
    - {b Determinism for tests}: the clock is injectable. With a pinned
      clock (and a single writer), two runs produce byte-identical logs —
      the serve tests rely on it.

    Line schema (field order fixed):
    [{"seq":N,"ts_s":T,"level":"info","event":"...","req":"r3",...fields}]
    — ["req"] only when a request id was given. *)

type level = Debug | Info | Warn | Error

val level_of_string : string -> (level, string) result
(** Accepts ["debug"], ["info"], ["warn"], ["error"] and ["warning"]; the error lists
    the valid set. *)

type t

val create : ?level:level -> ?clock:(unit -> float) -> (string -> unit) -> t
(** A logger writing through the sink, which receives one complete line
    {e without} the trailing newline. Records at a level below [level]
    (default [Info]) are dropped before rendering. [clock] (default
    [Unix.gettimeofday]) stamps [ts_s]; inject a fixed clock to pin log
    bytes in tests. *)

val to_channel : ?level:level -> out_channel -> t
(** Logger appending ["line\n"] to the channel and flushing per line (a
    crash must not swallow the tail of the log). *)

val null : t
(** Drops everything; the no-logging default for library callers. *)

val enabled : t -> level -> bool
(** Whether a record at this level would be kept — lets callers skip
    building expensive fields. *)

val log :
  t ->
  level ->
  ?req:string ->
  ?fields:(string * Json.t) list ->
  string ->
  unit
(** [log t lvl ~req ~fields event] emits one line. [fields] keep their
    order after the fixed prefix. *)

val debug : t -> ?req:string -> ?fields:(string * Json.t) list -> string -> unit
val info : t -> ?req:string -> ?fields:(string * Json.t) list -> string -> unit
val warn : t -> ?req:string -> ?fields:(string * Json.t) list -> string -> unit
val error : t -> ?req:string -> ?fields:(string * Json.t) list -> string -> unit

val sequence : t -> int
(** Lines emitted (and so the next line's [seq]); dropped-by-level records
    do not count. *)
