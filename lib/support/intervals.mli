(** The link book: busy-interval bookkeeping for one exclusive resource (a
    communication link). The machine simulator ([Machine.Sim]) and the
    static scheduler ([Syndex.Place]) both book in it, so predicted and
    simulated transfers share one contention model.

    A book is a mutable sequence of reservations [[start, stop)], sorted by
    start and disjoint up to an overlap of {!tolerance}. The scheduler
    backfills earlier gaps, so it keeps every reservation; the simulator,
    whose requests never start before its clock, {!prune}s first. *)

type t

val tolerance : float
(** [1e-15] seconds: first fit lets a reservation end up to this much
    after the start of the next one, so two neighbours may overlap by as
    much. *)

val create : unit -> t
(** An empty book; it allocates on its first {!reserve}. *)

val clear : t -> unit
(** Empties the book and zeroes its past total, keeping its arrays: a
    cleared book grants exactly the starts and the {!total} of a fresh
    one, bit for bit. The static scheduler clears its books before each
    schedule it derives. *)

val reserve : t -> earliest:float -> duration:float -> float
(** First fit: books [duration >= 0] seconds at the earliest start
    [>= earliest] that overlaps no reservation (within the tolerance), and
    returns that start. The new reservation goes after every one that
    starts at or before it. Times are finite, non-negative and never
    [-0.].

    The book keeps an upper bound on its reservations' stops. A request
    with [earliest] at or past it is a tail fit, granted [earliest] and
    appended in constant time; that is exact, since every reservation ends
    at or before [earliest] (first fit skips none of them forward) and
    starts at or before it (the new one goes last). Only a request that
    backfills scans the reservations, in time linear in their number. *)

val prune : t -> upto:float -> unit
(** Drops the longest prefix of reservations that all end at or before
    [upto], folding their lengths into the book's past total left to
    right. When every later request has [earliest >= upto], the dropped
    ones could never change a first fit, and a new reservation always goes
    after them: a book pruned before each {!reserve} grants exactly the
    starts and the {!total} of an unpruned one, bit for bit, at a cost
    proportional to the reservations still in flight. Pruning keeps the
    bound on the stops, which stays an upper bound, and an emptied book
    resets it: a pruned book tail-fits whenever an unpruned one would. *)

val total : t -> float
(** The past total, then every unpruned reservation's length, folded left
    in order: the sum over every reservation the book has made. *)

val valid : t -> bool
(** Checks that the unpruned reservations are sorted by start and that
    the non-empty ones are disjoint; a zero-length reservation overlaps
    nothing.
    Test oracle: [test_support]'s "reservations stay sorted and disjoint"
    checks every book with it. *)
