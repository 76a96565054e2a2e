(** The discrete-event simulator's event queue: a clock and the entries
    still due, popped in [(priority, tie)] order, where the tie is the push
    order. Extraction order is fully deterministic.

    Entries due later than the clock wait in a binary min-heap whose keys
    are unboxed; entries pushed at the clock's own instant skip the heap
    and wait in a FIFO lane. The lane holds only entries due now, pushed
    after every heap entry that is due now, so popping the heap while its
    top is due no later than the clock, and the lane otherwise, gives the
    order of one heap over all entries. *)

type 'a t

val create : 'a -> 'a t
(** [create filler] is an empty queue with its clock at 0. [filler] fills
    the slots the queue does not use; it is never popped. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Test oracle: [test_support]'s "peek and length", "lane wraps and
    grows" and event-order oracle read the queue's size back with it. *)

type clock = private { mutable now : float }
(** A queue's clock: the largest priority popped so far, 0 before any
    pop. A record of one float, so reading it allocates nothing. *)

val clock : 'a t -> clock

val push : 'a t -> float -> 'a -> unit
(** [push q prio v] inserts [v] with priority [prio]. Insertion order
    breaks priority ties (FIFO among equal priorities). It allocates
    nothing once the queue has grown to its working size. *)

val pop : 'a t -> 'a
(** Removes and returns the entry first in [(priority, push order)], and
    moves the clock up to its priority if that is later. The queue keeps
    no reference to it afterwards. Raises [Invalid_argument] on an empty
    queue. *)

val peek : 'a t -> 'a option
(** The entry {!pop} would return, left in the queue.
    Test oracle: [test_support]'s "peek and length" checks it against the
    queue's order. *)

val clear : 'a t -> unit
(** Empties the queue, drops its storage and sets the clock back to 0.
    Test oracle: [test_support]'s "clear" and "releases popped values"
    empty a queue with it. *)
