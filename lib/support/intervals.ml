(* Reservations [head .. tail - 1] of [starts]/[stops], sorted by start;
   [past] is the folded length of the pruned ones before [head], kept in a
   record of its own so that adding to it stores an unboxed float. *)
type past = { mutable past : float }

type t = {
  mutable starts : float array;
  mutable stops : float array;
  mutable head : int;
  mutable tail : int;
  sum : past;
}

let create () =
  { starts = [||]; stops = [||]; head = 0; tail = 0; sum = { past = 0.0 } }

(* overlap tolerance of the first-fit test *)
let eps = 1e-15

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
  (* first fit: skip every reservation the request would overlap *)
  let start = ref earliest and i = ref b.head in
  while !i < b.tail && not (!start +. duration <= b.starts.(!i) +. eps) do
    start := Float.max !start b.stops.(!i);
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
  b.starts.(j) <- start;
  b.stops.(j) <- start +. duration;
  b.tail <- b.tail + 1;
  start

let[@inline] prune b ~upto =
  while b.head < b.tail && b.stops.(b.head) <= upto do
    b.sum.past <- b.sum.past +. (b.stops.(b.head) -. b.starts.(b.head));
    b.head <- b.head + 1
  done;
  (* an emptied book starts again at the front of its arrays *)
  if b.head = b.tail then begin
    b.head <- 0;
    b.tail <- 0
  end

let total b =
  let acc = ref b.sum.past in
  for i = b.head to b.tail - 1 do
    acc := !acc +. (b.stops.(i) -. b.starts.(i))
  done;
  !acc

let valid b =
  let rec ok i =
    i >= b.tail
    || b.starts.(i) <= b.stops.(i)
       && (i = b.tail - 1 || b.stops.(i) <= b.starts.(i + 1) +. eps)
       && ok (i + 1)
  in
  ok b.head
