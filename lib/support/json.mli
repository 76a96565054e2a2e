(** Minimal JSON reader/printer for the machine-readable artifacts the
    toolchain itself produces (bench [--json] summaries, conformance
    reports, the committed bench baseline).

    This is deliberately not a general-purpose JSON library: it parses
    finite numbers only and prints with a fixed, deterministic format.
    String escapes are complete, though — all eight short escapes plus
    [\uXXXX] including surrogate pairs (decoded to UTF-8), since baseline
    and series files may be edited by hand or produced by other tools. The
    printer mirrors the short escapes ([\n \t \r \b \f]) and falls back to
    [\u00XX] for the remaining control characters. The bench baseline gate
    round-trips through it, so the hard requirement is
    [parse (to_string v) = Ok v] for values built of those pieces. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** key order preserved *)

exception Parse_error of string

val parse : string -> (t, string) result
(** Whole-string parse; trailing non-whitespace is an error. *)

val escape : string -> string
(** The body of a JSON string literal (without the quotes): double quote
    and backslash are escaped, [\n \t \r \b \f] get their short escapes,
    other control characters [\u00XX]; every other byte passes through.
    The one escaper behind {!to_string} and the toolchain's hand-formatted
    JSON (Chrome traces, metrics and stage reports). *)

val to_string : t -> string
(** Compact rendering. Integral numbers print without a fractional part,
    other floats with [%.9g]; object key order is preserved. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val to_list : t -> t list option
val to_float : t -> float option
val to_str : t -> string option
