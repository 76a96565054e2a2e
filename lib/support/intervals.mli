(** The link book: busy-interval bookkeeping for one exclusive resource (a
    communication link). The machine simulator ([Machine.Sim]) and the
    static scheduler ([Syndex.Place]) both book in it, so predicted and
    simulated transfers share one contention model.

    A book is a mutable sequence of reservations [[start, stop)], sorted by
    start and disjoint up to an overlap tolerance of [1e-15]. The scheduler
    backfills earlier gaps, so it keeps every reservation; the simulator,
    whose requests never start before its clock, {!prune}s first. *)

type t

val create : unit -> t
(** An empty book; it allocates on its first {!reserve}. *)

val reserve : t -> earliest:float -> duration:float -> float
(** First fit: books [duration >= 0] seconds at the earliest start
    [>= earliest] that overlaps no reservation (within the tolerance), and
    returns that start. The new reservation goes after every one that
    starts at or before it. *)

val prune : t -> upto:float -> unit
(** Drops the longest prefix of reservations that all end at or before
    [upto], folding their lengths into the book's past total left to
    right. When every later request has [earliest >= upto], the dropped
    ones could never change a first fit, and a new reservation always goes
    after them: a book pruned before each {!reserve} grants exactly the
    starts and the {!total} of an unpruned one, bit for bit, at a cost
    proportional to the reservations still in flight. *)

val total : t -> float
(** The past total, then every unpruned reservation's length, folded left
    in order: the sum over every reservation the book has made. *)

val valid : t -> bool
(** Checks that the unpruned reservations are ordered and disjoint.
    Test oracle: [test_support]'s "reservations stay sorted and disjoint"
    checks every book with it. *)
