open Effect.Deep
module Event = Skipper_trace.Event
module V = Skel.Value

type pid = Proc.pid

exception Process_failure of string * exn

type pstate = Runnable | Blocked | Finished

(* What the processor resumes the process with when it next runs it. *)
type park =
  | Fresh  (** the body, from the top *)
  | Unit_k  (** [k_unit], after a compute, a send or a sleep *)
  | Value_k  (** [k_value] with [answer], after a one-port receive *)
  | Any_k
      (** [k_any] with [answer_any], after a receive on a port list *)

(* A process's seconds, in a record of floats only, so that charging them
   stores unboxed floats. *)
type times = {
  mutable charged : float;  (* busy seconds charged to this process *)
  mutable blocked_at : float;  (* when the current Blocked episode began *)
  mutable blocked_total : float;  (* closed Blocked episodes, seconds *)
}

type process = {
  pid : pid;
  name : string;
  on : int;
  body : unit -> unit;  (* kept for durable restarts *)
  durable : bool;
      (* a durable process survives a processor halt: deliveries made while
         its processor is down are spooled (not dropped), and on [Restore]
         the body restarts from the top with its consumed-message journal
         replayed ahead of the unconsumed and spooled messages *)
  times : times;
  mutable state : pstate;
  mutable inc : incarnation;
      (* the live incarnation; a durable restart replaces it, so queued
         [Step]/[Enqueue]/ready entries of the dead one are stale *)
  mutable park : park;
  (* The continuation the process waits in, by answer type. A
     continuation has no placeholder value, so each slot is an empty array
     until its first use and a one-element array after. *)
  mutable k_unit : (unit, unit) continuation array;
  mutable k_value : (V.t, unit) continuation array;
  mutable k_any : ((string * V.t) option, unit) continuation array;
  mutable answer : V.t;
  mutable answer_any : (string * V.t) option;
  mutable wait_port : string;  (* the port of a blocked [Value_k] wait *)
  mutable wait_ports : string list;  (* the ports of a blocked [Any_k] wait *)
  mutable wait_seq : int;
      (* monotonic token, bumped at every wait: pairs a [recv_deadline]
         wait with its pending [Timeout] event, so stale timers are
         ignored *)
  mutable journal : (string * float * int * V.t) list;
      (* consumed (port, delivery time, msg, payload) since the last
         [mark_stable], most recent first; replayed on restart *)
  mutable spooled : (string * float * int * V.t) list;
      (* deliveries that arrived while halted, most recent first *)
  mutable boxes : mailbox array;  (* one per port, in creation order *)
  mutable sent : int;  (* messages sent *)
}

(* One life of a process, with the event that resumes it. *)
and incarnation = { proc : process; step : event }

(* A port's FIFO of (delivery time, message id, payload), a ring over three
   parallel arrays whose capacity is a power of two. *)
and mailbox = {
  port : string;
  mutable arrivals : float array;
  mutable ids : int array;
  mutable vals : V.t array;
  mutable head : int;
  mutable len : int;
  mutable high : int;  (* high-water depth; 0 until a first delivery *)
}

and event =
  | Dispatch of int
      (** processor id: pull next ready process if CPU free; one value per
          processor, made by [create] *)
  | Step of incarnation
      (** resume the process now (CPU already held), unless the incarnation
          died; one value per incarnation *)
  | Enqueue of incarnation
      (** re-admit a sleeping process via the ready queue *)
  | Deliver_msg of {
      dst : pid;
      msg : int;
      port : string;
      v : V.t;
      src : int;  (* sending processor; -1 for environment injections *)
      faultable : bool;  (* already-faulted re-deliveries are exempt *)
    }
  | Timeout of pid * int  (** deadline of a [recv_deadline] wait (pid, token) *)
  | Halt of int  (** processor fault: stop dispatching on this processor *)
  | Restore of int  (** lift a [Halt]: the processor dispatches again *)
  | Vacant  (** fills unused queue slots; never pushed *)

(* ------------------------------------------------------------------ *)
(* Fault plan                                                          *)

type fault_action = Drop | Delay of float | Duplicate

type fault_schedule =
  | Always
  | Nth of int  (* the nth matching delivery only, 1-based *)
  | Every of int  (* every kth matching delivery *)
  | Prob of float * int  (* probability per matching delivery, seed *)

type link_fault = {
  action : fault_action;
  link : (int * int) option;  (* directed (src, dst) processors; None = any *)
  schedule : fault_schedule;
}

let link_fault ?link ?(schedule = Always) action = { action; link; schedule }

(* A fault armed on a machine: the spec plus its runtime matching state. *)
type armed_fault = {
  spec : link_fault;
  mutable seen : int;  (* matching deliveries observed so far *)
  frng : Support.Prng.t option;
}

type fault_tally = { dropped : int; delayed : int; duplicated : int }

(* A processor's ready queue: [Step] events in a ring whose capacity is a
   power of two, [Vacant] in unused slots. A ring of [event]s, not a
   generic one: monomorphic array accesses measured ≈9% faster on the
   farm. *)
type ready = { mutable ring : event array; mutable first : int; mutable count : int }

(* One directed link's reservations, pruned against the clock (see
   [transfer]), and the number of transfers it carried. *)
type link_book = { book : Support.Intervals.t; mutable transfers : int }

type t = {
  arch : Archi.t;
  cycle : float array;  (* per-processor cycle time, seconds *)
  mutable processes : process array;
  mutable nprocesses : int;
  events : event Support.Pqueue.t;
  clock : Support.Pqueue.clock;  (* the clock of [events] *)
  dispatch : event array;  (* [Dispatch p] at [p] *)
  cpu_free : float array;
  halted : bool array;
  halted_since : float option array;  (* start of the current halt episode *)
  halted_s : float array;  (* closed halt episodes, seconds *)
  mutable fault_plan : armed_fault list;
  mutable dropped_msgs : int;
  mutable delayed_msgs : int;
  mutable dup_msgs : int;
  ready : ready array;
  links : link_book array;  (* indexed like [Archi.link_at] *)
  mutable ran : bool;
  mutable messages : int;
  mutable bytes : int;
  mutable hops_total : int;
  mutable next_msg : int;
  busy : float array;
  tracing : bool;
  timeline : Event.timeline;
}

let create ?(trace = false) arch =
  let n = Archi.nprocs arch in
  let events = Support.Pqueue.create Vacant in
  {
    arch;
    cycle = Array.map (fun p -> p.Archi.cycle_time) (Archi.processors arch);
    processes = [||];
    nprocesses = 0;
    events;
    clock = Support.Pqueue.clock events;
    dispatch = Array.init n (fun p -> Dispatch p);
    cpu_free = Array.make n 0.0;
    halted = Array.make n false;
    halted_since = Array.make n None;
    halted_s = Array.make n 0.0;
    fault_plan = [];
    dropped_msgs = 0;
    delayed_msgs = 0;
    dup_msgs = 0;
    ready = Array.init n (fun _ -> { ring = [||]; first = 0; count = 0 });
    links =
      Array.init (Archi.nlinks arch) (fun _ ->
          { book = Support.Intervals.create (); transfers = 0 });
    ran = false;
    messages = 0;
    bytes = 0;
    hops_total = 0;
    next_msg = 0;
    busy = Array.make n 0.0;
    tracing = trace;
    timeline = Event.create ();
  }

let arch t = t.arch

let lane (proc : process) =
  Event.processor_lane ~proc:proc.on ~pid:proc.pid ~name:proc.name

(* The full message lifecycle is emitted, one record per step: the sender's
   overhead span ([emit_send]), one link span per hop along the route, a
   deliver instant when the payload lands in the destination mailbox, and
   [emit_recv] when the receiving process consumes it (dur = 0 when the
   delivery woke a blocked receiver, which pays no software overhead).
   Send and recv carry a flow pair keyed by the message id, which exporters
   draw as an arrow. *)
let emit_send t ~lane ~time ~msg ~dst ~port ~bytes ~dur =
  let tl = t.timeline in
  let name = "send " ^ port in
  let args =
    [
      ("msg", Event.Count msg);
      ("dst", Event.Count dst);
      ("bytes", Event.Count bytes);
    ]
  in
  if dur > 0.0 then Event.span tl ~lane ~cat:"send" ~args ~name ~time ~dur ()
  else
    Event.instant tl ~lane ~cat:"send" ~args ~name:("inject " ^ port) ~time ();
  Event.flow_start tl ~lane ~cat:"message" ~name:port ~flow:msg ~time ()

let emit_recv t proc ~msg ~port ~dur =
  let lane = lane proc in
  Event.span t.timeline ~lane ~cat:"recv"
    ~args:[ ("msg", Event.Count msg) ]
    ~name:("recv " ^ port) ~time:t.clock.now ~dur ();
  Event.flow_end t.timeline ~lane ~cat:"message" ~name:port ~flow:msg
    ~time:t.clock.now ()

let emit_block t proc ports =
  Event.instant t.timeline ~lane:(lane proc) ~cat:"block"
    ~args:[ ("ports", Event.Str (String.concat "," ports)) ]
    ~name:"blocked" ~time:t.clock.now ()

(* Processor-level instants: halts, restores and message faults, on the
   affected processor's cpu lane. *)
let emit_fault t p ?msg name =
  let args = match msg with Some m -> [ ("msg", Event.Count m) ] | None -> [] in
  Event.instant t.timeline ~lane:(Event.cpu_lane p) ~cat:"fault" ~args ~name
    ~time:t.clock.now ()

let fresh_msg t =
  let id = t.next_msg in
  t.next_msg <- id + 1;
  id

let[@inline] push_event t at ev = Support.Pqueue.push t.events at ev

let[@inline] charge_busy t (proc : process) dt =
  t.busy.(proc.on) <- t.busy.(proc.on) +. dt;
  proc.times.charged <- dt +. proc.times.charged

(* ------------------------------------------------------------------ *)
(* Ready queues and mailboxes                                          *)

let ready_add t p ev =
  let r = t.ready.(p) in
  let cap = Array.length r.ring in
  if r.count = cap then begin
    let ring = Array.make (max 4 (2 * cap)) Vacant in
    for i = 0 to r.count - 1 do
      ring.(i) <- r.ring.((r.first + i) land (cap - 1))
    done;
    r.ring <- ring;
    r.first <- 0
  end;
  r.ring.((r.first + r.count) land (Array.length r.ring - 1)) <- ev;
  r.count <- r.count + 1

let ready_take r =
  let ev = r.ring.(r.first) in
  r.ring.(r.first) <- Vacant;
  r.first <- (r.first + 1) land (Array.length r.ring - 1);
  r.count <- r.count - 1;
  ev

let make_ready t (proc : process) =
  ready_add t proc.on proc.inc.step;
  push_event t t.clock.now t.dispatch.(proc.on)

let mailbox (proc : process) port =
  let boxes = proc.boxes in
  let n = Array.length boxes in
  let rec find i =
    if i = n then begin
      let mb =
        { port; arrivals = [||]; ids = [||]; vals = [||]; head = 0; len = 0; high = 0 }
      in
      proc.boxes <- Array.append boxes [| mb |];
      mb
    end
    else if String.equal boxes.(i).port port then boxes.(i)
    else find (i + 1)
  in
  find 0

let grow_mailbox mb =
  let cap = Array.length mb.vals in
  let ncap = max 4 (2 * cap) in
  let arrivals = Array.make ncap 0.0
  and ids = Array.make ncap 0
  and vals = Array.make ncap V.Unit in
  for i = 0 to mb.len - 1 do
    let j = (mb.head + i) land (cap - 1) in
    arrivals.(i) <- mb.arrivals.(j);
    ids.(i) <- mb.ids.(j);
    vals.(i) <- mb.vals.(j)
  done;
  mb.arrivals <- arrivals;
  mb.ids <- ids;
  mb.vals <- vals;
  mb.head <- 0

(* Appends without touching the high-water mark, which only deliveries
   raise. *)
let[@inline] mailbox_add mb at msg v =
  if mb.len = Array.length mb.vals then grow_mailbox mb;
  let i = (mb.head + mb.len) land (Array.length mb.vals - 1) in
  mb.arrivals.(i) <- at;
  mb.ids.(i) <- msg;
  mb.vals.(i) <- v;
  mb.len <- mb.len + 1

(* Removes the head message, journalling it for a durable process; the
   caller has read its id and payload. *)
let mailbox_drop (proc : process) mb =
  let i = mb.head in
  if proc.durable then
    proc.journal <- (mb.port, mb.arrivals.(i), mb.ids.(i), mb.vals.(i)) :: proc.journal;
  mb.vals.(i) <- V.Unit;
  mb.head <- (i + 1) land (Array.length mb.vals - 1);
  mb.len <- mb.len - 1

(* Among [ports], the mailbox whose head message was delivered earliest
   (the first such port on ties). *)
let earliest_message (proc : process) ports =
  List.fold_left
    (fun best port ->
      let mb = mailbox proc port in
      if mb.len = 0 then best
      else
        match best with
        | Some b when b.arrivals.(b.head) <= mb.arrivals.(mb.head) -> best
        | _ -> Some mb)
    None ports

(* ------------------------------------------------------------------ *)
(* Links                                                               *)

(* Physical transfer of [bytes_n] bytes from processor [src] to [dst],
   starting at [depart]. Returns the arrival time; reserves link occupancy
   (store-and-forward, one transfer at a time per directed link) hop by hop
   along [Archi.route], walked through [Archi.first_link] so no route list
   is built. Every request starts at or after the clock (a departure is the
   clock plus the send overhead, a later hop starts where the previous one
   finished, and the clock never goes back), so reservations that ended by
   now can never affect a first fit again: each link's book is pruned
   before it is booked, which keeps the cost per hop proportional to the
   transfers in flight. [msg] only feeds the trace. Inlined into the send
   path, so its floats stay unboxed. *)
let[@inline] transfer t ~msg src dst bytes_n depart =
  if src = dst then depart +. (float_of_int bytes_n /. Archi.local_copy_bandwidth)
  else begin
    let u = ref src and at = ref depart in
    while !u <> dst do
      let i = Archi.first_link t.arch !u dst in
      if i < 0 then
        failwith (Printf.sprintf "Sim.transfer: no path %d -> %d" src dst);
      let link = Archi.link_at t.arch i in
      let duration = Archi.hop_time link bytes_n in
      let lb = t.links.(i) in
      Support.Intervals.prune lb.book ~upto:t.clock.now;
      lb.transfers <- lb.transfers + 1;
      let start = Support.Intervals.reserve lb.book ~earliest:!at ~duration in
      t.hops_total <- t.hops_total + 1;
      let finish = start +. duration in
      if t.tracing then
        Event.span t.timeline
          ~lane:
            (Event.link_lane ~src:!u ~dst:link.Archi.dst
               ~nprocs:(Archi.nprocs t.arch))
          ~cat:"link"
          ~args:[ ("msg", Event.Count msg); ("bytes", Event.Count bytes_n) ]
          ~name:(Printf.sprintf "msg %d" msg)
          ~time:start ~dur:(finish -. start) ();
      at := finish;
      u := link.Archi.dst
    done;
    !at
  end

(* ------------------------------------------------------------------ *)
(* The handler: what each primitive does                               *)

(* Each [on_*] runs when the body performs the effect, before the
   continuation is parked, and schedules what follows; the processor then
   ends the segment. *)

let on_compute t (proc : process) cycles =
  let p = proc.on and now = t.clock.now in
  let dt = cycles *. t.cycle.(p) in
  if t.tracing then
    Event.span t.timeline ~lane:(lane proc) ~cat:"compute"
      ~args:[ ("cycles", Event.Num cycles) ]
      ~name:"compute" ~time:now ~dur:dt ();
  charge_busy t proc dt;
  t.cpu_free.(p) <- now +. dt;
  push_event t (now +. dt) proc.inc.step

let on_send t (proc : process) dst port v =
  let p = proc.on and now = t.clock.now in
  let dt = Archi.send_overhead_cycles *. t.cycle.(p) in
  charge_busy t proc dt;
  proc.sent <- proc.sent + 1;
  t.cpu_free.(p) <- now +. dt;
  let dst_proc = t.processes.(dst) in
  let nbytes = V.byte_size v in
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + nbytes;
  let msg = fresh_msg t in
  if t.tracing then
    emit_send t ~lane:(lane proc) ~time:now ~msg ~dst ~port ~bytes:nbytes ~dur:dt;
  let arrive = transfer t ~msg p dst_proc.on nbytes (now +. dt) in
  push_event t arrive (Deliver_msg { dst; msg; port; v; src = p; faultable = true });
  push_event t (now +. dt) proc.inc.step

(* Takes [mb]'s head message for [proc], paying the receive overhead. *)
let receive_now t (proc : process) mb =
  let p = proc.on and now = t.clock.now in
  let msg = mb.ids.(mb.head) and v = mb.vals.(mb.head) in
  mailbox_drop proc mb;
  let dt = Archi.recv_overhead_cycles *. t.cycle.(p) in
  charge_busy t proc dt;
  t.cpu_free.(p) <- now +. dt;
  if t.tracing then emit_recv t proc ~msg ~port:mb.port ~dur:dt;
  push_event t (now +. dt) proc.inc.step;
  v

(* Blocks [proc] on a fresh wait; the caller traces it and frees the
   processor. *)
let block t (proc : process) =
  proc.wait_seq <- proc.wait_seq + 1;
  proc.state <- Blocked;
  proc.times.blocked_at <- t.clock.now

let on_recv t (proc : process) port =
  let mb = mailbox proc port in
  if mb.len > 0 then proc.answer <- receive_now t proc mb
  else begin
    proc.wait_port <- port;
    block t proc;
    if t.tracing then emit_block t proc [ port ];
    t.cpu_free.(proc.on) <- t.clock.now;
    push_event t t.clock.now t.dispatch.(proc.on)
  end

let on_recv_any t (proc : process) ports deadline =
  match earliest_message proc ports with
  | Some mb -> proc.answer_any <- Some (mb.port, receive_now t proc mb)
  | None ->
      proc.wait_ports <- ports;
      block t proc;
      if t.tracing then emit_block t proc ports;
      t.cpu_free.(proc.on) <- t.clock.now;
      push_event t
        (Float.max t.clock.now deadline)
        (Timeout (proc.pid, proc.wait_seq));
      push_event t t.clock.now t.dispatch.(proc.on)

let on_sleep t (proc : process) at =
  let now = t.clock.now in
  t.cpu_free.(proc.on) <- now;
  push_event t (Float.max now at) (Enqueue proc.inc);
  push_event t now t.dispatch.(proc.on)

let on_return t (proc : process) () =
  let p = proc.on and now = t.clock.now in
  proc.state <- Finished;
  if t.tracing then
    Event.instant t.timeline ~lane:(lane proc) ~cat:"proc" ~name:"done" ~time:now ();
  t.cpu_free.(p) <- now;
  push_event t now t.dispatch.(p)

(* A one-element array holding [k], reusing [slot] once it exists. *)
let into_slot slot k =
  if Array.length slot = 0 then [| k |]
  else begin
    slot.(0) <- k;
    slot
  end

(* The handler one incarnation's body runs under, made once when it
   starts. Its answers are made here too, so handling an effect allocates
   nothing: the [on_*] work runs in [effc], and the answer only parks the
   continuation in the process; [Now] and [Mark_stable] are answered at
   once, within the same zero-duration segment. *)
let handler t (proc : process) : (unit, unit) handler =
  let park_unit =
    Some
      (fun k ->
        proc.k_unit <- into_slot proc.k_unit k;
        proc.park <- Unit_k)
  and park_value =
    Some
      (fun k ->
        proc.k_value <- into_slot proc.k_value k;
        proc.park <- Value_k)
  and park_any =
    Some
      (fun k ->
        proc.k_any <- into_slot proc.k_any k;
        proc.park <- Any_k)
  and answer_now = Some (fun k -> continue k t.clock.now)
  and answer_unit = Some (fun k -> continue k ()) in
  {
    retc = on_return t proc;
    exnc = (fun exn -> raise (Process_failure (proc.name, exn)));
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
        match eff with
        | Proc.Recv port ->
            on_recv t proc port;
            park_value
        | Proc.Send (dst, port, v) ->
            on_send t proc dst port v;
            park_unit
        | Proc.Compute cycles ->
            on_compute t proc cycles;
            park_unit
        | Proc.Recv_any (ports, deadline) ->
            on_recv_any t proc ports deadline;
            park_any
        | Proc.Sleep_until at ->
            on_sleep t proc at;
            park_unit
        | Proc.Now -> answer_now
        | Proc.Mark_stable ->
            (* the journal's messages are covered by the checkpoint the
               caller just took *)
            proc.journal <- [];
            answer_unit
        | _ -> None);
  }

(* Run one zero-duration execution segment of [proc]. A continuation
   resumes under the handler it was captured in, so only a fresh body
   installs one. Every [continue] here is a tail call: a variant that
   kept [resume]'s frame under the running body, to loop after it,
   measured 5-10% slower on the null-kernel farm. *)
let resume t (proc : process) =
  match proc.park with
  | Fresh -> match_with proc.body () (handler t proc)
  | Unit_k -> continue proc.k_unit.(0) ()
  | Value_k ->
      let v = proc.answer in
      proc.answer <- V.Unit;
      continue proc.k_value.(0) v
  | Any_k ->
      let r = proc.answer_any in
      proc.answer_any <- None;
      continue proc.k_any.(0) r

let spawn t ~name ?(durable = false) ~on body =
  if t.ran then invalid_arg "Sim.spawn: machine already ran";
  if on < 0 || on >= Archi.nprocs t.arch then
    invalid_arg (Printf.sprintf "Sim.spawn: no processor %d" on);
  let pid = t.nprocesses in
  let times = { charged = 0.0; blocked_at = 0.0; blocked_total = 0.0 } in
  let rec proc =
    {
      pid;
      name;
      on;
      body;
      durable;
      times;
      state = Runnable;
      inc;
      park = Fresh;
      k_unit = [||];
      k_value = [||];
      k_any = [||];
      answer = V.Unit;
      answer_any = None;
      wait_port = "";
      wait_ports = [];
      wait_seq = 0;
      journal = [];
      spooled = [];
      boxes = [||];
      sent = 0;
    }
  and inc = { proc; step = Step inc } in
  if pid >= Array.length t.processes then begin
    let cap = max 16 (2 * Array.length t.processes) in
    let np = Array.make cap proc in
    Array.blit t.processes 0 np 0 t.nprocesses;
    t.processes <- np
  end;
  t.processes.(pid) <- proc;
  t.nprocesses <- t.nprocesses + 1;
  ready_add t on inc.step;
  push_event t 0.0 t.dispatch.(on);
  pid

let inject t ?(at = 0.0) pid port v =
  if pid < 0 || pid >= t.nprocesses then invalid_arg "Sim.inject: unknown process";
  let msg = fresh_msg t in
  if t.tracing then
    emit_send t ~lane:Event.env_lane ~time:at ~msg ~dst:pid ~port
      ~bytes:(V.byte_size v) ~dur:0.0;
  push_event t at
    (Deliver_msg { dst = pid; msg; port; v; src = -1; faultable = true })

let halt_processor t ?(at = 0.0) p =
  if p < 0 || p >= Archi.nprocs t.arch then
    invalid_arg "Sim.halt_processor: no such processor";
  push_event t at (Halt p)

let restore_processor t ?(at = 0.0) p =
  if p < 0 || p >= Archi.nprocs t.arch then
    invalid_arg "Sim.restore_processor: no such processor";
  push_event t at (Restore p)

let add_fault t (f : link_fault) =
  let frng =
    match f.schedule with
    | Prob (_, seed) -> Some (Support.Prng.create seed)
    | Always | Nth _ | Every _ -> None
  in
  t.fault_plan <- t.fault_plan @ [ { spec = f; seen = 0; frng } ]

(* Does any armed fault fire on this delivery?  Only genuinely remote
   messages are eligible: environment injections (src < 0) and local
   copies are exempt, so a faulty machine always remains *startable*.
   Each matching delivery bumps the fault's [seen] counter; the first
   fault whose schedule fires wins. *)
let fault_for t ~src ~dst_proc =
  match t.fault_plan with
  | [] -> None
  | _ when src < 0 || src = dst_proc -> None
  | plan ->
    List.fold_left
      (fun acc (af : armed_fault) ->
        let s = af.spec in
        let link_matches =
          match s.link with
          | None -> true
          | Some (a, b) -> a = src && b = dst_proc
        in
        if link_matches then begin
          af.seen <- af.seen + 1;
          let fires =
            match s.schedule with
            | Always -> true
            | Nth n -> af.seen = n
            | Every k -> k > 0 && af.seen mod k = 0
            | Prob (p, _) -> (
                match af.frng with
                | Some rng -> Support.Prng.float rng 1.0 < p
                | None -> false)
          in
          if fires && acc = None then Some s.action else acc
        end
        else acc)
      None plan

let deliver t pid msg port v =
  let proc = t.processes.(pid) in
  let mb = mailbox proc port in
  mailbox_add mb t.clock.now msg v;
  mb.high <- max mb.high mb.len;
  if t.tracing then
    Event.instant t.timeline ~lane:(lane proc) ~cat:"deliver"
      ~args:[ ("msg", Event.Count msg) ]
      ~name:("deliver " ^ port) ~time:t.clock.now ();
  let wakes =
    proc.state = Blocked
    &&
    match proc.park with
    | Value_k -> String.equal port proc.wait_port
    | Any_k -> List.mem port proc.wait_ports
    | Fresh | Unit_k -> false
  in
  if wakes then begin
    (* Wake up: run the receive here, at no software overhead. A pending
       [Timeout] becomes stale and is ignored on arrival thanks to the
       token bump at the next wait. *)
    proc.state <- Runnable;
    proc.times.blocked_total <-
      proc.times.blocked_total +. (t.clock.now -. proc.times.blocked_at);
    let mb =
      match proc.park with
      | Any_k -> Option.get (earliest_message proc proc.wait_ports)
      | _ -> mb
    in
    let msg = mb.ids.(mb.head) and v = mb.vals.(mb.head) in
    mailbox_drop proc mb;
    if proc.park = Any_k then proc.answer_any <- Some (mb.port, v)
    else proc.answer <- v;
    if t.tracing then emit_recv t proc ~msg ~port:mb.port ~dur:0.0;
    make_ready t proc
  end

let rec dispatch t p =
  if t.halted.(p) then ()
  else if t.cpu_free.(p) > t.clock.now then
    (* CPU still busy: retry when it frees. *)
    push_event t t.cpu_free.(p) t.dispatch.(p)
  else if t.ready.(p).count > 0 then
    match ready_take t.ready.(p) with
    | Step inc when inc.proc.inc == inc -> resume t inc.proc
    | _ -> dispatch t p (* stale incarnation: skip and try the next entry *)

(* Durable processes restart from the top: their old continuations become
   stale (a new incarnation) and their mailboxes are rebuilt so the fresh
   incarnation re-reads, per port, the journalled messages it had consumed
   since its last [mark_stable], then the unconsumed backlog, then the
   deliveries spooled during the outage. *)
let restart t (proc : process) ~halt_start =
  (match proc.state with
  | Blocked ->
      (* The wait died with the processor: close the episode at the halt
         instant, not the restore. *)
      let upto = match halt_start with Some s -> s | None -> t.clock.now in
      proc.times.blocked_total <-
        proc.times.blocked_total +. Float.max 0.0 (upto -. proc.times.blocked_at)
  | Runnable | Finished -> ());
  let journal = List.rev proc.journal and spooled = List.rev proc.spooled in
  List.iter (fun (port, _, _, _) -> ignore (mailbox proc port)) journal;
  List.iter (fun (port, _, _, _) -> ignore (mailbox proc port)) spooled;
  Array.iter
    (fun mb ->
      let backlog =
        List.init mb.len (fun i ->
            let j = (mb.head + i) land (Array.length mb.vals - 1) in
            (mb.arrivals.(j), mb.ids.(j), mb.vals.(j)))
      in
      Array.fill mb.vals 0 (Array.length mb.vals) V.Unit;
      mb.head <- 0;
      mb.len <- 0;
      let mine = List.filter (fun (port, _, _, _) -> String.equal port mb.port) in
      List.iter (fun (_, at, msg, v) -> mailbox_add mb at msg v) (mine journal);
      List.iter (fun (at, msg, v) -> mailbox_add mb at msg v) backlog;
      List.iter
        (fun (_, _, msg, v) -> mailbox_add mb t.clock.now msg v)
        (mine spooled))
    proc.boxes;
  proc.journal <- [];
  proc.spooled <- [];
  let rec inc = { proc; step = Step inc } in
  proc.inc <- inc;
  proc.park <- Fresh;
  proc.answer <- V.Unit;
  proc.answer_any <- None;
  proc.state <- Runnable;
  if t.tracing then emit_fault t proc.on ~msg:(-1) "restart (replay)";
  ready_add t proc.on inc.step

let run t =
  if t.ran then failwith "Sim.run: machine already ran";
  t.ran <- true;
  while not (Support.Pqueue.is_empty t.events) do
    match Support.Pqueue.pop t.events with
    | Dispatch p -> dispatch t p
    | Step inc ->
        let proc = inc.proc in
        if (not t.halted.(proc.on)) && proc.inc == inc then resume t proc
    | Enqueue inc -> if inc.proc.inc == inc then make_ready t inc.proc
    | Deliver_msg { dst; msg; port; v; src; faultable } -> (
        let proc = t.processes.(dst) in
        if t.halted.(proc.on) then
          if proc.durable then begin
            (* A durable process loses no input to a halt: the delivery
               is spooled and re-delivered when the processor restores. *)
            proc.spooled <- (port, t.clock.now, msg, v) :: proc.spooled;
            if t.tracing then emit_fault t proc.on ~msg "spool (processor halted)"
          end
          else begin
            t.dropped_msgs <- t.dropped_msgs + 1;
            if t.tracing then emit_fault t proc.on ~msg "drop (processor halted)"
          end
        else
          match if faultable then fault_for t ~src ~dst_proc:proc.on else None with
          | Some Drop ->
              t.dropped_msgs <- t.dropped_msgs + 1;
              if t.tracing then emit_fault t proc.on ~msg "drop"
          | Some (Delay dt) ->
              t.delayed_msgs <- t.delayed_msgs + 1;
              if t.tracing then
                emit_fault t proc.on ~msg (Printf.sprintf "delay %gms" (dt *. 1e3));
              push_event t (t.clock.now +. dt)
                (Deliver_msg { dst; msg; port; v; src; faultable = false })
          | Some Duplicate ->
              t.dup_msgs <- t.dup_msgs + 1;
              if t.tracing then emit_fault t proc.on ~msg "duplicate";
              push_event t t.clock.now
                (Deliver_msg { dst; msg; port; v; src; faultable = false });
              deliver t dst msg port v
          | None -> deliver t dst msg port v)
    | Timeout (pid, tok) ->
        let proc = t.processes.(pid) in
        (* a wait answered in time leaves its timer stale *)
        if (not t.halted.(proc.on)) && proc.state = Blocked && proc.wait_seq = tok
        then begin
          proc.state <- Runnable;
          proc.times.blocked_total <-
            proc.times.blocked_total +. (t.clock.now -. proc.times.blocked_at);
          proc.answer_any <- None;
          make_ready t proc
        end
    | Halt p ->
        if not t.halted.(p) then begin
          t.halted.(p) <- true;
          t.halted_since.(p) <- Some t.clock.now;
          if t.tracing then emit_fault t p "halted"
        end
    | Restore p ->
        if t.halted.(p) then begin
          t.halted.(p) <- false;
          let halt_start = t.halted_since.(p) in
          (match halt_start with
          | Some since -> t.halted_s.(p) <- t.halted_s.(p) +. (t.clock.now -. since)
          | None -> ());
          t.halted_since.(p) <- None;
          if t.tracing then emit_fault t p "restored";
          for pid = 0 to t.nprocesses - 1 do
            let proc = t.processes.(pid) in
            if proc.on = p && proc.durable && proc.state <> Finished then
              restart t proc ~halt_start
          done;
          push_event t t.clock.now t.dispatch.(p)
        end
    | Vacant -> ()
  done;
  t.clock.now

type stats = {
  finish_time : float;
  messages : int;
  bytes : int;
  busy : float array;
  hops_total : int;
  dropped_msgs : int;
}

let stats t =
  {
    finish_time = t.clock.now;
    messages = t.messages;
    bytes = t.bytes;
    busy = Array.copy t.busy;
    hops_total = t.hops_total;
    dropped_msgs = t.dropped_msgs;
  }

let fault_tally (t : t) =
  { dropped = t.dropped_msgs; delayed = t.delayed_msgs; duplicated = t.dup_msgs }

(* Per-processor wall-clock during which the processor was alive (not
   halted).  A healthy run reports the finish time everywhere. *)
let live_times t =
  let now = t.clock.now in
  Array.init (Archi.nprocs t.arch) (fun p ->
      let open_halt =
        match t.halted_since.(p) with Some s -> now -. s | None -> 0.0
      in
      Float.max 0.0 (now -. t.halted_s.(p) -. open_halt))

let utilisation t =
  let live = Array.fold_left ( +. ) 0.0 (live_times t) in
  if live <= 0.0 then 0.0 else Array.fold_left ( +. ) 0.0 t.busy /. live

let timeline t = t.timeline

type account = {
  aname : string;
  on : int;
  busy_s : float;
  blocked_s : float;
  sends : int;
  finished : bool;
  halted : bool;
}

let accounts t =
  List.init t.nprocesses (fun pid ->
      let proc = t.processes.(pid) in
      let halted = t.halted.(proc.on) in
      (* A process on a halted processor stops accruing blocked time at the
         halt instant: it is dead, not waiting. *)
      let horizon =
        if halted then
          match t.halted_since.(proc.on) with Some s -> s | None -> t.clock.now
        else t.clock.now
      in
      let blocked =
        match proc.state with
        | Blocked ->
            proc.times.blocked_total
            +. Float.max 0.0 (horizon -. proc.times.blocked_at)
        | Runnable | Finished -> proc.times.blocked_total
      in
      {
        aname = proc.name;
        on = proc.on;
        busy_s = proc.times.charged;
        blocked_s = blocked;
        sends = proc.sent;
        finished = (proc.state = Finished);
        halted;
      })

let link_occupancy t =
  let acc = ref [] in
  Array.iteri
    (fun i book ->
      if book.transfers > 0 then begin
        let l = Archi.link_at t.arch i in
        acc :=
          ( (l.Archi.src, l.Archi.dst),
            Support.Intervals.total book.book,
            book.transfers )
          :: !acc
      end)
    t.links;
  List.sort compare !acc

let port_depths t =
  let acc = ref [] in
  for pid = 0 to t.nprocesses - 1 do
    let proc = t.processes.(pid) in
    Array.iter
      (fun mb -> if mb.high > 0 then acc := ((proc.name, mb.port), mb.high) :: !acc)
      proc.boxes
  done;
  List.sort compare !acc
