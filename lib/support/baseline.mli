(** Regression gate over persisted benchmark summaries.

    A baseline is a JSON array of per-experiment objects (the bench
    harness's [--json] format), committed to the repository. [compare]
    diffs a freshly produced array against it: fields named in [exact]
    must match bit-for-bit (simulation-deterministic counters — messages,
    drops, reissues — where any drift is a real behaviour change), and
    every other numeric field must agree within a relative [tolerance]
    (timing shaped values, where cost-model refinements legitimately move
    the needle a little). Numeric identity is bit-pattern identity
    ([Int64.bits_of_float]), so a NaN baseline field can pass (against an
    identical NaN) and an exact [0.] vs [-0.] flip fails loudly instead of
    sliding through [(=)]. Missing/added experiments and missing/added
    fields are failures in both directions, so the baseline cannot
    silently rot: intentional changes go through an explicit
    [--update-baseline]. *)

type verdict = {
  checked : int;  (** baseline entries compared *)
  failures : string list;  (** human-readable, one per divergence *)
}

val ok : verdict -> bool

val compare :
  ?exact:string list ->
  ?tolerance:float ->
  baseline:Json.t ->
  current:Json.t ->
  unit ->
  verdict
(** [exact] defaults to [[]]; [tolerance] (relative, against the larger
    magnitude) defaults to [0.01]. Absolute drifts below [1e-12] always
    pass, so zero-valued fields do not trip on formatting noise. *)
