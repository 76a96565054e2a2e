(* Slots at or past [size] are always [Vacant], so the queue keeps no
   reference to an entry it has given back. *)
type 'a slot = Vacant | Entry of { prio : float; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a slot array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }
let is_empty q = q.size = 0
let length q = q.size

let less a b =
  match (a, b) with
  | Entry a, Entry b -> a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)
  | _ -> invalid_arg "Pqueue: vacant slot inside the heap"

let grow q =
  let cap = Array.length q.heap in
  if q.size >= cap then begin
    let nh = Array.make (max 16 (2 * cap)) Vacant in
    Array.blit q.heap 0 nh 0 q.size;
    q.heap <- nh
  end

let push q prio value =
  let entry = Entry { prio; seq = q.next_seq; value } in
  q.next_seq <- q.next_seq + 1;
  grow q;
  q.heap.(q.size) <- entry;
  q.size <- q.size + 1;
  (* sift up *)
  let i = ref (q.size - 1) in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    less q.heap.(!i) q.heap.(p)
  do
    let p = (!i - 1) / 2 in
    let tmp = q.heap.(p) in
    q.heap.(p) <- q.heap.(!i);
    q.heap.(!i) <- tmp;
    i := p
  done

let pop q =
  match if q.size = 0 then Vacant else q.heap.(0) with
  | Vacant -> None
  | Entry top ->
      q.size <- q.size - 1;
      q.heap.(0) <- q.heap.(q.size);
      q.heap.(q.size) <- Vacant;
      if q.size > 0 then begin
        (* sift down *)
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < q.size && less q.heap.(l) q.heap.(!smallest) then smallest := l;
          if r < q.size && less q.heap.(r) q.heap.(!smallest) then smallest := r;
          if !smallest = !i then continue := false
          else begin
            let tmp = q.heap.(!smallest) in
            q.heap.(!smallest) <- q.heap.(!i);
            q.heap.(!i) <- tmp;
            i := !smallest
          end
        done
      end;
      Some (top.prio, top.value)

let peek q =
  if q.size = 0 then None
  else match q.heap.(0) with Entry e -> Some (e.prio, e.value) | Vacant -> None

let clear q =
  q.heap <- [||];
  q.size <- 0;
  q.next_seq <- 0
