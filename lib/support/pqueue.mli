(** Mutable binary min-heap keyed by [(priority, tie)].

    Used as the event queue of the discrete-event simulator. Ties are broken by an integer sequence number so
    extraction order is fully deterministic. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Test oracle: [test_support]'s "peek and length" and "clear" read the
    queue's size back with [is_empty] and [length]. *)

val push : 'a t -> float -> 'a -> unit
(** [push q prio v] inserts [v] with priority [prio]. Insertion order breaks
    priority ties (FIFO among equal priorities). *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the minimum-priority element. The queue keeps no
    reference to it afterwards, so a popped value is not kept alive by the
    queue. *)

val peek : 'a t -> (float * 'a) option
(** The minimum-priority element, left in the queue.
    Test oracle: [test_support]'s "peek and length" checks it against the
    queue's order. *)

val clear : 'a t -> unit
(** Empties the queue and drops its storage.
    Test oracle: [test_support]'s "clear" and "releases popped values"
    empty a queue with it. *)
