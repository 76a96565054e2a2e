(** Busy-interval bookkeeping for exclusive resources (communication links).

    An occupancy list is a sorted list of disjoint [(start, stop)] intervals.
    The machine simulator reserves link time with first-fit insertion here,
    and keeps a {!prune}d book because its requests never start before its
    clock. The static scheduler ([Syndex.Place]) backfills earlier gaps, so
    it keeps every reservation, in its own array-backed book whose
    [reserve] grants the start [reserve] grants here, bit for bit: predicted
    and simulated transfers share one contention model. *)

type t = (float * float) list
(** Sorted by start, pairwise disjoint. *)

val empty : t

val first_fit : t -> earliest:float -> duration:float -> float
(** Earliest start [>= earliest] such that [[start, start + duration)] does
    not overlap any interval. *)

val reserve : t -> earliest:float -> duration:float -> float * t
(** [first_fit] plus insertion; returns the start and the updated list. *)

val total : ?past:float -> t -> float
(** Sum of interval lengths, folded left from [past] (default 0). *)

val prune : t -> upto:float -> past:float -> float * t
(** [prune t ~upto ~past] drops the longest prefix of [t] whose intervals
    all end at or before [upto], and returns [past] with the dropped lengths
    folded into it left to right, plus the remaining list.

    When every later request has [earliest >= upto], the dropped intervals
    can never change a {!first_fit} again, and a new reservation is always
    inserted after them. So a book [(past, live)] kept by pruning before
    each {!reserve} grants exactly the starts the full list would, and
    [total ~past live] equals [total] of the full list bit for bit: it is
    the same left fold over the same intervals. This keeps the cost of a
    reservation proportional to the intervals still in flight, not to the
    resource's whole history. *)

val valid : t -> bool
(** Checks ordering and disjointness.
    Test oracle: [test_support]'s "reservations stay sorted and disjoint"
    checks every reservation list with it. *)
