(* Reservations [head .. tail - 1] of [starts]/[stops], sorted by start;
   [past] is the folded length of the pruned ones before [head] and [hi]
   an upper bound on the stops of [head .. tail - 1] ([neg_infinity] when
   there are none), kept in a float-only record of their own so that
   storing them stores unboxed floats. *)
type floats = { mutable past : float; mutable hi : float }

type t = {
  mutable starts : float array;
  mutable stops : float array;
  mutable head : int;
  mutable tail : int;
  floats : floats;
}

let create () =
  {
    starts = [||];
    stops = [||];
    head = 0;
    tail = 0;
    floats = { past = 0.0; hi = neg_infinity };
  }

let clear b =
  b.head <- 0;
  b.tail <- 0;
  b.floats.past <- 0.0;
  b.floats.hi <- neg_infinity

let tolerance = 1e-15

(* Make room for one more reservation at [tail]: slide the unpruned ones
   to the front when they fill at most half the arrays, else move them to
   fresh arrays twice their number. *)
let make_room b =
  let cap = Array.length b.starts in
  if b.tail = cap then begin
    let live = b.tail - b.head in
    let move a =
      let dst =
        if cap > 0 && 2 * live <= cap then a else Array.make (max 4 (2 * live)) 0.0
      in
      Array.blit a b.head dst 0 live;
      dst
    in
    b.starts <- move b.starts;
    b.stops <- move b.stops;
    b.head <- 0;
    b.tail <- live
  end

(* [reserve] and [prune] are inlined into their callers' hop loops, whose
   floats then stay unboxed. *)
let[@inline] reserve b ~earliest ~duration =
  make_room b;
  if earliest >= b.floats.hi then begin
    (* tail fit: every reservation ends at or before [earliest], so first
       fit grants [earliest]; every one starts at or before it, so the new
       one goes last *)
    let stop = earliest +. duration in
    b.starts.(b.tail) <- earliest;
    b.stops.(b.tail) <- stop;
    b.tail <- b.tail + 1;
    b.floats.hi <- stop;
    earliest
  end
  else begin
    (* first fit: skip every reservation the request would overlap; times
       are finite, non-negative and never [-0.], so a compare picks the
       bits [Float.max] would *)
    let start = ref earliest and i = ref b.head in
    while
      !i < b.tail && not (!start +. duration <= b.starts.(!i) +. tolerance)
    do
      let stop = b.stops.(!i) in
      if stop > !start then start := stop;
      incr i
    done;
    let start = !start in
    (* insert before the first reservation that starts later; every skipped
       one ends at or before [start], so the scan resumes where first fit
       stopped *)
    let j = ref !i in
    while !j < b.tail && not (start < b.starts.(!j)) do
      incr j
    done;
    let j = !j in
    if j < b.tail then begin
      Array.blit b.starts j b.starts (j + 1) (b.tail - j);
      Array.blit b.stops j b.stops (j + 1) (b.tail - j)
    end;
    let stop = start +. duration in
    b.starts.(j) <- start;
    b.stops.(j) <- stop;
    b.tail <- b.tail + 1;
    if stop > b.floats.hi then b.floats.hi <- stop;
    start
  end

(* Pruning keeps [hi]: a bound on more stops than remain is still a bound. *)
let[@inline] prune b ~upto =
  while b.head < b.tail && b.stops.(b.head) <= upto do
    b.floats.past <- b.floats.past +. (b.stops.(b.head) -. b.starts.(b.head));
    b.head <- b.head + 1
  done;
  (* an emptied book starts again at the front of its arrays *)
  if b.head = b.tail then begin
    b.head <- 0;
    b.tail <- 0;
    b.floats.hi <- neg_infinity
  end

let total b =
  let acc = ref b.floats.past in
  for i = b.head to b.tail - 1 do
    acc := !acc +. (b.stops.(i) -. b.starts.(i))
  done;
  !acc

(* A zero-length reservation overlaps nothing: [reserve] puts one that
   starts where another does after it, so only the non-empty ones must be
   disjoint, each ending by the next one's start. *)
let valid b =
  let rec ok i last_stop =
    i >= b.tail
    ||
    let start = b.starts.(i) and stop = b.stops.(i) in
    start <= stop
    && (i = b.head || b.starts.(i - 1) <= start)
    && (start = stop || last_stop <= start +. tolerance)
    && ok (i + 1) (if start = stop then last_stop else stop)
  in
  ok b.head neg_infinity
