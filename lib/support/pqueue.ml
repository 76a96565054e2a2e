(* Entries due later than the clock live in a binary min-heap over three
   parallel arrays: [prios] and [seqs] hold the [(prio, seq)] keys unboxed,
   [values] the payloads. Entries pushed at the clock's instant go to the
   lane, a FIFO ring: they are due now and, pushed after every heap entry
   due now, come after them in [(prio, seq)] order, so the lane needs no
   key. Slots not in use hold [filler], so the queue keeps no reference to
   an entry it has given back. *)
type clock = { mutable now : float }

type 'a t = {
  filler : 'a;
  clock : clock;
  mutable prios : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
  mutable lane : 'a array;  (* ring, capacity a power of two *)
  mutable lane_head : int;
  mutable lane_len : int;
}

let create filler =
  {
    filler;
    clock = { now = 0.0 };
    prios = [||];
    seqs = [||];
    values = [||];
    size = 0;
    next_seq = 0;
    lane = [||];
    lane_head = 0;
    lane_len = 0;
  }

let is_empty q = q.size = 0 && q.lane_len = 0
let length q = q.size + q.lane_len
let clock q = q.clock

let grow_heap q =
  let cap = max 16 (2 * q.size) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 q.size;
    b
  in
  q.prios <- extend q.prios 0.0;
  q.seqs <- extend q.seqs 0;
  q.values <- extend q.values q.filler

let grow_lane q =
  let cap = Array.length q.lane in
  let b = Array.make (max 16 (2 * cap)) q.filler in
  for i = 0 to q.lane_len - 1 do
    b.(i) <- q.lane.((q.lane_head + i) land (cap - 1))
  done;
  q.lane <- b;
  q.lane_head <- 0

let push_lane q v =
  if q.lane_len = Array.length q.lane then grow_lane q;
  q.lane.((q.lane_head + q.lane_len) land (Array.length q.lane - 1)) <- v;
  q.lane_len <- q.lane_len + 1

(* Sift the entry whose key was just written at [prios.(size)] up to its
   place, moving the hole rather than swapping. *)
let push_heap q v =
  let prio = q.prios.(q.size) and seq = q.next_seq in
  q.next_seq <- seq + 1;
  let i = ref q.size in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pp = q.prios.(p) in
    if prio < pp || (prio = pp && seq < q.seqs.(p)) then begin
      q.prios.(!i) <- pp;
      q.seqs.(!i) <- q.seqs.(p);
      q.values.(!i) <- q.values.(p);
      i := p
    end
    else continue := false
  done;
  q.prios.(!i) <- prio;
  q.seqs.(!i) <- seq;
  q.values.(!i) <- v;
  q.size <- q.size + 1

(* Inlined where the caller has the priority unboxed, so pushing allocates
   nothing once the arrays have grown. *)
let[@inline] push q prio v =
  if prio = q.clock.now then push_lane q v
  else begin
    if q.size = Array.length q.values then grow_heap q;
    Array.unsafe_set q.prios q.size prio;
    push_heap q v
  end

let pop_heap q =
  let v = q.values.(0) in
  (* [Float.max], NaN included, without a call *)
  if not (q.prios.(0) <= q.clock.now) then q.clock.now <- q.prios.(0);
  let n = q.size - 1 in
  q.size <- n;
  let prio = q.prios.(n) and seq = q.seqs.(n) and last = q.values.(n) in
  q.values.(n) <- q.filler;
  if n > 0 then begin
    (* sift the last entry down from the root *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (q.prios.(r) < q.prios.(l)
               || (q.prios.(r) = q.prios.(l) && q.seqs.(r) < q.seqs.(l)))
          then r
          else l
        in
        let cp = q.prios.(c) in
        if cp < prio || (cp = prio && q.seqs.(c) < seq) then begin
          q.prios.(!i) <- cp;
          q.seqs.(!i) <- q.seqs.(c);
          q.values.(!i) <- q.values.(c);
          i := c
        end
        else continue := false
      end
    done;
    q.prios.(!i) <- prio;
    q.seqs.(!i) <- seq;
    q.values.(!i) <- last
  end;
  v

let pop_lane q =
  let v = q.lane.(q.lane_head) in
  q.lane.(q.lane_head) <- q.filler;
  q.lane_head <- (q.lane_head + 1) land (Array.length q.lane - 1);
  q.lane_len <- q.lane_len - 1;
  v

(* The lane is due now; the heap's top is due now or earlier only if it
   was pushed before every lane entry. *)
let lane_first q = q.lane_len > 0 && (q.size = 0 || q.prios.(0) > q.clock.now)

let pop q =
  if lane_first q then pop_lane q
  else if q.size > 0 then pop_heap q
  else invalid_arg "Pqueue.pop: empty queue"

let peek q =
  if lane_first q then Some q.lane.(q.lane_head)
  else if q.size > 0 then Some q.values.(0)
  else None

let clear q =
  q.prios <- [||];
  q.seqs <- [||];
  q.values <- [||];
  q.size <- 0;
  q.next_seq <- 0;
  q.lane <- [||];
  q.lane_head <- 0;
  q.lane_len <- 0;
  q.clock.now <- 0.0
