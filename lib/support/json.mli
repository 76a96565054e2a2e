(** The toolchain's one JSON reader and its only JSON writer.

    Every machine-readable artifact the toolchain produces (Chrome traces,
    windowed series, metrics reports, bench [--json] summaries, stage
    timings, conformance reports, daemon responses and logs) is built as a
    {!t} and printed by {!to_string}; no other module writes JSON syntax
    or escapes strings. The two multi-record files (a Chrome trace's
    [traceEvents] list and bench's [--json] list) frame one
    {!to_string} record per line themselves.

    This is deliberately not a general-purpose JSON library: it prints
    with a fixed, deterministic format. String escapes are complete,
    though — all eight short escapes plus [\uXXXX] including surrogate
    pairs (decoded to UTF-8), since baseline and series files may be
    edited by hand or produced by other tools. The printer mirrors the
    short escapes ([\n \t \r \b \f]) and falls back to [\u00XX] for the
    remaining control characters. JSON has no spelling for nan or
    infinity, so the printer writes [null] for every non-finite number and
    its output always parses. The bench baseline gate round-trips through
    it: [parse (to_string v) = Ok v] for values built of finite [Num]s,
    strings, booleans, [Null], arrays and objects. *)

type t =
  | Null
  | Bool of bool
  | Num of float  (** integral values print as integers, others [%.9g] *)
  | Fixed of int * float
      (** [Fixed (d, x)] prints [x] with exactly [d >= 0] decimals, as
          [Printf.sprintf "%.*f" d x] does; {!parse} reads it back as a
          plain [Num]. The exporters' fixed-width fields use it so their
          bytes do not depend on a shortest-round-trip rule. *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** key order preserved *)

exception Parse_error of string

val parse : string -> (t, string) result
(** Whole-string parse; trailing non-whitespace is an error. Numbers
    come back as [Num]. Arrays and objects nest at most 512 deep; deeper
    input is an error. Never raises. *)

val int : int -> t
(** [Fixed (0, float_of_int n)]: prints as [%d] does for every int of
    magnitude up to 2{^53}. *)

val to_string : t -> string
(** Compact rendering, object key order preserved. [Num] and [Fixed]
    print as documented on {!t}; a nan or infinite number of either kind
    prints as [null]. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val to_list : t -> t list option
val to_float : t -> float option
val to_str : t -> string option
