open Effect
open Effect.Deep
module Event = Skipper_trace.Event

type pid = int

exception Not_in_process
exception Process_failure of string * exn

type _ Effect.t +=
  | E_recv :
      (string list * float option)
      -> (string * Skel.Value.t) option Effect.t
      (* [None] only when the optional deadline passed first *)
  | E_send : (pid * string * Skel.Value.t) -> unit Effect.t
  | E_compute : float -> unit Effect.t
  | E_sleep : float -> unit Effect.t

type resume =
  | Start of (unit -> unit)
  | RUnit of (unit, unit) continuation
  | RMsg of
      ((string * Skel.Value.t) option, unit) continuation
      * (string * Skel.Value.t) option

type pstate =
  | Runnable
  | Blocked of
      string list * int * ((string * Skel.Value.t) option, unit) continuation
      (* the int token pairs the wait with its pending [Timeout] event, if
         it has a deadline, so stale timers are ignored *)
  | Finished

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
  mutable state : pstate;
  mutable blocked_at : float;  (* when the current Blocked episode began *)
  mutable blocked_total : float;  (* closed Blocked episodes, seconds *)
  mutable wait_seq : int;  (* monotonic token, bumped at every wait *)
  mutable epoch : int;
      (* incarnation counter; bumped at each durable restart so queued
         [Step]/[Enqueue]/ready entries of the dead incarnation are stale *)
  mutable journal : (string * float * int * Skel.Value.t) list;
      (* consumed (port, delivery time, msg, payload) since the last
         [mark_stable], most recent first; replayed on restart *)
  mutable spooled : (string * float * int * Skel.Value.t) list;
      (* deliveries that arrived while halted, most recent first *)
  mailboxes : (string, mailbox) Hashtbl.t;
  mutable charged : float;  (* busy seconds charged to this process *)
  mutable sent : int;  (* messages sent *)
}

and mailbox = {
  msgs : (float * int * Skel.Value.t) Queue.t;
      (* (delivery time, message id, payload) *)
  mutable high : int;  (* high-water depth; 0 until a first delivery *)
}

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
  from_t : float;
  until_t : float;
}

let link_fault ?link ?(schedule = Always) ?(from_t = 0.0) ?(until_t = infinity)
    action =
  { action; link; schedule; from_t; until_t }

(* A fault armed on a machine: the spec plus its runtime matching state. *)
type armed_fault = {
  spec : link_fault;
  mutable seen : int;  (* matching deliveries observed so far *)
  frng : Support.Prng.t option;
}

type fault_tally = { dropped : int; delayed : int; duplicated : int }

type event =
  | Dispatch of int  (** processor id: pull next ready process if CPU free *)
  | Step of pid * int * resume
      (** continue this process now (CPU already held); the int is the
          incarnation epoch the continuation belongs to *)
  | Enqueue of pid * int * resume
      (** re-admit a sleeping process via the ready queue (epoch-guarded) *)
  | Deliver_msg of {
      dst : pid;
      msg : int;
      port : string;
      v : Skel.Value.t;
      src : int;  (* sending processor; -1 for environment injections *)
      faultable : bool;  (* already-faulted re-deliveries are exempt *)
    }
  | Timeout of pid * int  (** deadline of a [recv_deadline] wait (pid, token) *)
  | Halt of int  (** processor fault: stop dispatching on this processor *)
  | Restore of int  (** lift a [Halt]: the processor dispatches again *)

(* One directed link's reservations, pruned against the clock (see
   [reserve_link]): [live] holds those that may still affect a first-fit,
   [past] the folded length of the ended ones. *)
type link_book = {
  mutable past : float;
  mutable live : Support.Intervals.t;
  mutable transfers : int;
}

type t = {
  arch : Archi.t;
  mutable processes : process array;
  mutable nprocesses : int;
  events : event Support.Pqueue.t;
  cpu_free : float array;
  halted : bool array;
  halted_since : float option array;  (* start of the current halt episode *)
  halted_s : float array;  (* closed halt episodes, seconds *)
  mutable fault_plan : armed_fault list;
  mutable dropped_msgs : int;
  mutable delayed_msgs : int;
  mutable dup_msgs : int;
  ready : (pid * int * resume) Queue.t array;  (* (pid, epoch, resume) *)
  links : link_book array;  (* indexed like [Archi.link_at] *)
  mutable time : float;
  mutable ran : bool;
  mutable messages : int;
  mutable bytes : int;
  mutable hops_total : int;
  mutable next_msg : int;
  busy : float array;
  last_charge : pid array;  (* process holding the latest charge, or -1 *)
  tracing : bool;
  timeline : Event.timeline;
}

let create ?(trace = false) arch =
  let n = Archi.nprocs arch in
  {
    arch;
    processes = [||];
    nprocesses = 0;
    events = Support.Pqueue.create ();
    cpu_free = Array.make n 0.0;
    halted = Array.make n false;
    halted_since = Array.make n None;
    halted_s = Array.make n 0.0;
    fault_plan = [];
    dropped_msgs = 0;
    delayed_msgs = 0;
    dup_msgs = 0;
    ready = Array.init n (fun _ -> Queue.create ());
    links =
      Array.init (Archi.nlinks arch) (fun _ ->
          { past = 0.0; live = Support.Intervals.empty; transfers = 0 });
    time = 0.0;
    ran = false;
    messages = 0;
    bytes = 0;
    hops_total = 0;
    next_msg = 0;
    busy = Array.make n 0.0;
    last_charge = Array.make n (-1);
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
    ~name:("recv " ^ port) ~time:t.time ~dur ();
  Event.flow_end t.timeline ~lane ~cat:"message" ~name:port ~flow:msg
    ~time:t.time ()

let emit_block t proc ports =
  Event.instant t.timeline ~lane:(lane proc) ~cat:"block"
    ~args:[ ("ports", Event.Str (String.concat "," ports)) ]
    ~name:"blocked" ~time:t.time ()

(* Processor-level instants: halts, restores and message faults, on the
   affected processor's cpu lane. *)
let emit_fault t p ?msg name =
  let args = match msg with Some m -> [ ("msg", Event.Count m) ] | None -> [] in
  Event.instant t.timeline ~lane:(Event.cpu_lane p) ~cat:"fault" ~args ~name
    ~time:t.time ()

let fresh_msg t =
  let id = t.next_msg in
  t.next_msg <- id + 1;
  id

(* The process currently executing a zero-duration segment. Domain-local,
   not a plain ref: independent machines may run concurrently on separate
   domains (Support.Domain_pool farms whole simulations), and each domain
   runs at most one machine at a time, so DLS is exactly the right scope. *)
let current : (t * process) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let the_current () =
  match Domain.DLS.get current with Some c -> c | None -> raise Not_in_process
let self () = (snd (the_current ())).pid
let now () = (fst (the_current ())).time

(* Primitives only perform effects; all semantics live in the handler. *)
let compute cycles = perform (E_compute cycles)
let sleep_until at = perform (E_sleep at)
let send dst port v = perform (E_send (dst, port, v))
let recv_any ports = Option.get (perform (E_recv (ports, None)))
let recv_deadline ports ~deadline = perform (E_recv (ports, Some deadline))

let recv port =
  let _, v = recv_any [ port ] in
  v

(* Truncate the calling process's replay journal: everything consumed so far
   is covered by a checkpoint the caller just took, so a restart no longer
   needs to re-feed it. Takes effect within the current zero-duration
   segment, which makes checkpoint-then-mark atomic with respect to halts
   (those only land at event boundaries). *)
let mark_stable () =
  let _, proc = the_current () in
  proc.journal <- []

let cycle_time t p = (Archi.processors t.arch).(p).Archi.cycle_time

let charge_busy t (proc : process) dt =
  t.busy.(proc.on) <- t.busy.(proc.on) +. dt;
  t.last_charge.(proc.on) <- proc.pid;
  proc.charged <- dt +. proc.charged

(* Find, among [ports], the mailbox whose head message was delivered
   earliest. Returns (port, delivery_time). *)
let earliest_message (proc : process) ports =
  List.fold_left
    (fun best port ->
      match Hashtbl.find_opt proc.mailboxes port with
      | None -> best
      | Some mb when Queue.is_empty mb.msgs -> best
      | Some mb ->
          let at, _, _ = Queue.peek mb.msgs in
          (match best with
          | Some (_, best_at) when best_at <= at -> best
          | _ -> Some (port, at)))
    None ports

let pop_message (proc : process) port =
  let at, msg, v = Queue.pop (Hashtbl.find proc.mailboxes port).msgs in
  if proc.durable then proc.journal <- (port, at, msg, v) :: proc.journal;
  (msg, v)

let push_event t at ev = Support.Pqueue.push t.events at ev

let make_ready t (proc : process) resume =
  Queue.add (proc.pid, proc.epoch, resume) t.ready.(proc.on);
  push_event t t.time (Dispatch proc.on)

(* Reserve [duration] on a link no earlier than [earliest] (first-fit into
   the link's gap structure). Returns the start of the reservation. Every
   request starts at or after the clock (a departure is the clock plus the
   send overhead, a later hop starts where the previous one finished, and
   the clock never goes back), so reservations that ended by now can never
   affect a first-fit again: they are folded into [past] first, which keeps
   the cost per hop proportional to the transfers in flight. *)
let reserve_link t book earliest duration =
  let past, live = Support.Intervals.prune book.live ~upto:t.time ~past:book.past in
  let start, live = Support.Intervals.reserve live ~earliest ~duration in
  book.past <- past;
  book.live <- live;
  book.transfers <- book.transfers + 1;
  start

(* Physical transfer of [bytes_n] bytes from processor [src] to [dst],
   starting at [depart]. Returns the arrival time; reserves link occupancy
   (store-and-forward, one transfer at a time per directed link) hop by hop
   along [Archi.route], walked through [Archi.first_link] so no route list
   is built. [msg] only feeds the trace. *)
let transfer t ~msg src dst bytes_n depart =
  if src = dst then depart +. (float_of_int bytes_n /. Syndex.Cost.local_copy_bandwidth)
  else begin
    let rec hop u depart =
      if u = dst then depart
      else begin
        let i = Archi.first_link t.arch u dst in
        if i < 0 then
          failwith (Printf.sprintf "Sim.transfer: no path %d -> %d" src dst);
        let link = Archi.link_at t.arch i in
        let duration =
          link.Archi.startup +. (float_of_int bytes_n /. link.Archi.bandwidth)
        in
        let start = reserve_link t t.links.(i) depart duration in
        t.hops_total <- t.hops_total + 1;
        let finish = start +. duration in
        if t.tracing then
          Event.span t.timeline
            ~lane:
              (Event.link_lane ~src:u ~dst:link.Archi.dst
                 ~nprocs:(Archi.nprocs t.arch))
            ~cat:"link"
            ~args:[ ("msg", Event.Count msg); ("bytes", Event.Count bytes_n) ]
            ~name:(Printf.sprintf "msg %d" msg)
            ~time:start ~dur:(finish -. start) ();
        hop link.Archi.dst finish
      end
    in
    hop src depart
  end

(* Run one zero-duration execution segment of [proc]. Effects performed by
   the body terminate the segment after scheduling follow-up events. *)
let run_segment t (proc : process) resume =
  let p = proc.on in
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc =
        (fun () ->
          proc.state <- Finished;
          if t.tracing then
            Event.instant t.timeline ~lane:(lane proc) ~cat:"proc" ~name:"done"
              ~time:t.time ();
          t.cpu_free.(p) <- t.time;
          push_event t t.time (Dispatch p));
      exnc = (fun exn -> raise (Process_failure (proc.name, exn)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_compute cycles ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let dt = cycles *. cycle_time t p in
                  if t.tracing then
                    Event.span t.timeline ~lane:(lane proc) ~cat:"compute"
                      ~args:[ ("cycles", Event.Num cycles) ]
                      ~name:"compute" ~time:t.time ~dur:dt ();
                  charge_busy t proc dt;
                  t.cpu_free.(p) <- t.time +. dt;
                  push_event t (t.time +. dt) (Step (proc.pid, proc.epoch, RUnit k)))
          | E_send (dst, port, v) ->
              Some
                (fun k ->
                  let dt = Syndex.Cost.default_send_overhead_cycles *. cycle_time t p in
                  charge_busy t proc dt;
                  proc.sent <- proc.sent + 1;
                  t.cpu_free.(p) <- t.time +. dt;
                  let dst_proc = t.processes.(dst) in
                  let nbytes = Skel.Value.byte_size v in
                  t.messages <- t.messages + 1;
                  t.bytes <- t.bytes + nbytes;
                  let msg = fresh_msg t in
                  if t.tracing then
                    emit_send t ~lane:(lane proc) ~time:t.time ~msg ~dst ~port
                      ~bytes:nbytes ~dur:dt;
                  let arrive =
                    transfer t ~msg p dst_proc.on nbytes (t.time +. dt)
                  in
                  push_event t arrive
                    (Deliver_msg
                       { dst; msg; port; v; src = p; faultable = true });
                  push_event t (t.time +. dt) (Step (proc.pid, proc.epoch, RUnit k)))
          | E_sleep at ->
              Some
                (fun (k : (a, unit) continuation) ->
                  t.cpu_free.(p) <- t.time;
                  push_event t (Float.max t.time at)
                    (Enqueue (proc.pid, proc.epoch, RUnit k));
                  push_event t t.time (Dispatch p))
          | E_recv (ports, deadline) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  match earliest_message proc ports with
                  | Some (port, _) ->
                      let msg, v = pop_message proc port in
                      let dt = Syndex.Cost.default_recv_overhead_cycles *. cycle_time t p in
                      charge_busy t proc dt;
                      t.cpu_free.(p) <- t.time +. dt;
                      if t.tracing then
                        emit_recv t proc ~msg ~port ~dur:dt;
                      push_event t (t.time +. dt)
                        (Step (proc.pid, proc.epoch, RMsg (k, Some (port, v))))
                  | None ->
                      proc.wait_seq <- proc.wait_seq + 1;
                      proc.state <- Blocked (ports, proc.wait_seq, k);
                      proc.blocked_at <- t.time;
                      if t.tracing then emit_block t proc ports;
                      t.cpu_free.(p) <- t.time;
                      Option.iter
                        (fun d ->
                          push_event t (Float.max t.time d)
                            (Timeout (proc.pid, proc.wait_seq)))
                        deadline;
                      push_event t t.time (Dispatch p))
          | _ -> None);
    }
  in
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (Some (t, proc));
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set current saved)
    (fun () ->
      match resume with
      | Start body -> match_with body () handler
      | RUnit k -> continue k ()
      | RMsg (k, r) -> continue k r)

let spawn t ~name ?(durable = false) ~on body =
  if t.ran then invalid_arg "Sim.spawn: machine already ran";
  if on < 0 || on >= Archi.nprocs t.arch then
    invalid_arg (Printf.sprintf "Sim.spawn: no processor %d" on);
  let pid = t.nprocesses in
  let proc =
    {
      pid;
      name;
      on;
      body;
      durable;
      state = Runnable;
      blocked_at = 0.0;
      blocked_total = 0.0;
      wait_seq = 0;
      epoch = 0;
      journal = [];
      spooled = [];
      mailboxes = Hashtbl.create 4;
      charged = 0.0;
      sent = 0;
    }
  in
  if pid >= Array.length t.processes then begin
    let cap = max 16 (2 * Array.length t.processes) in
    let np = Array.make cap proc in
    Array.blit t.processes 0 np 0 t.nprocesses;
    t.processes <- np
  end;
  t.processes.(pid) <- proc;
  t.nprocesses <- t.nprocesses + 1;
  Queue.add (pid, 0, Start body) t.ready.(on);
  push_event t 0.0 (Dispatch on);
  pid

let inject t ?(at = 0.0) pid port v =
  if pid < 0 || pid >= t.nprocesses then invalid_arg "Sim.inject: unknown process";
  let msg = fresh_msg t in
  if t.tracing then
    emit_send t ~lane:Event.env_lane ~time:at ~msg ~dst:pid ~port
      ~bytes:(Skel.Value.byte_size v) ~dur:0.0;
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
  if src < 0 || src = dst_proc then None
  else
    List.fold_left
      (fun acc (af : armed_fault) ->
        let s = af.spec in
        let link_matches =
          match s.link with
          | None -> true
          | Some (a, b) -> a = src && b = dst_proc
        in
        if link_matches && t.time >= s.from_t && t.time <= s.until_t then begin
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
      None t.fault_plan

let mailbox (proc : process) port =
  match Hashtbl.find_opt proc.mailboxes port with
  | Some mb -> mb
  | None ->
      let mb = { msgs = Queue.create (); high = 0 } in
      Hashtbl.replace proc.mailboxes port mb;
      mb

let deliver t pid msg port v =
  let proc = t.processes.(pid) in
  let mb = mailbox proc port in
  Queue.add (t.time, msg, v) mb.msgs;
  mb.high <- max mb.high (Queue.length mb.msgs);
  if t.tracing then
    Event.instant t.timeline ~lane:(lane proc) ~cat:"deliver"
      ~args:[ ("msg", Event.Count msg) ]
      ~name:("deliver " ^ port) ~time:t.time ();
  match proc.state with
  | Blocked (ports, _tok, k) when List.mem port ports ->
      (* Wake up: re-run the receive logic from the dispatch path. A pending
         [Timeout] becomes stale and is ignored on arrival thanks to the
         token bump at the next wait. *)
      proc.state <- Runnable;
      proc.blocked_total <- proc.blocked_total +. (t.time -. proc.blocked_at);
      let port, _ = Option.get (earliest_message proc ports) in
      let msg, v = pop_message proc port in
      if t.tracing then emit_recv t proc ~msg ~port ~dur:0.0;
      make_ready t proc (RMsg (k, Some (port, v)))
  | Blocked _ | Runnable | Finished -> ()

let rec dispatch t p =
  if t.halted.(p) then ()
  else if t.cpu_free.(p) > t.time then
    (* CPU still busy: retry when it frees. *)
    push_event t t.cpu_free.(p) (Dispatch p)
  else if not (Queue.is_empty t.ready.(p)) then begin
    let pid, epoch, resume = Queue.pop t.ready.(p) in
    if t.processes.(pid).epoch = epoch then run_segment t t.processes.(pid) resume
    else dispatch t p (* stale incarnation: skip and try the next entry *)
  end

let run ?(until = infinity) t =
  if t.ran then failwith "Sim.run: machine already ran";
  t.ran <- true;
  let rec loop () =
    match Support.Pqueue.peek t.events with
    | None -> ()
    | Some (at, _) when at > until ->
        (* Out-of-window events stay queued; the clock advances to exactly
           the requested horizon so utilisation/accounts cover it. *)
        if Float.is_finite until then begin
          t.time <- Float.max t.time until;
          (* A busy charge is booked in full when the operation starts, so
             an operation spanning the horizon has over-charged by the part
             beyond it — cpu_free marks where that charge ends. Refund the
             overshoot so windowed utilisation cannot exceed 1. *)
          Array.iteri
            (fun p free ->
              let over = free -. t.time in
              if over > 0.0 then begin
                t.busy.(p) <- t.busy.(p) -. over;
                let pid = t.last_charge.(p) in
                if pid >= 0 then begin
                  let proc = t.processes.(pid) in
                  proc.charged <- proc.charged -. over
                end
              end)
            t.cpu_free
        end
    | Some _ ->
        let at, ev = Option.get (Support.Pqueue.pop t.events) in
        t.time <- Float.max t.time at;
        (match ev with
        | Dispatch p -> dispatch t p
        | Step (pid, epoch, resume) ->
            let proc = t.processes.(pid) in
            if (not t.halted.(proc.on)) && proc.epoch = epoch then
              run_segment t proc resume
        | Enqueue (pid, epoch, resume) ->
            let proc = t.processes.(pid) in
            if proc.epoch = epoch then make_ready t proc resume
        | Deliver_msg { dst; msg; port; v; src; faultable } ->
            let proc = t.processes.(dst) in
            if t.halted.(proc.on) then
              if proc.durable then begin
                (* A durable process loses no input to a halt: the delivery
                   is spooled and re-delivered when the processor restores. *)
                proc.spooled <- (port, t.time, msg, v) :: proc.spooled;
                if t.tracing then
                  emit_fault t proc.on ~msg "spool (processor halted)"
              end
              else begin
                t.dropped_msgs <- t.dropped_msgs + 1;
                if t.tracing then
                  emit_fault t proc.on ~msg "drop (processor halted)"
              end
            else begin
              match
                if faultable then fault_for t ~src ~dst_proc:proc.on else None
              with
              | Some Drop ->
                  t.dropped_msgs <- t.dropped_msgs + 1;
                  if t.tracing then emit_fault t proc.on ~msg "drop"
              | Some (Delay dt) ->
                  t.delayed_msgs <- t.delayed_msgs + 1;
                  if t.tracing then
                    emit_fault t proc.on ~msg
                      (Printf.sprintf "delay %gms" (dt *. 1e3));
                  push_event t (t.time +. dt)
                    (Deliver_msg { dst; msg; port; v; src; faultable = false })
              | Some Duplicate ->
                  t.dup_msgs <- t.dup_msgs + 1;
                  if t.tracing then
                    emit_fault t proc.on ~msg "duplicate";
                  push_event t t.time
                    (Deliver_msg { dst; msg; port; v; src; faultable = false });
                  deliver t dst msg port v
              | None -> deliver t dst msg port v
            end
        | Timeout (pid, tok) -> (
            let proc = t.processes.(pid) in
            if not t.halted.(proc.on) then
              match proc.state with
              | Blocked (_, tok', k) when tok' = tok ->
                  proc.state <- Runnable;
                  proc.blocked_total <-
                    proc.blocked_total +. (t.time -. proc.blocked_at);
                  make_ready t proc (RMsg (k, None))
              | _ -> () (* stale timer: the wait was already satisfied *))
        | Halt p ->
            if not t.halted.(p) then begin
              t.halted.(p) <- true;
              t.halted_since.(p) <- Some t.time;
              if t.tracing then emit_fault t p "halted"
            end
        | Restore p ->
            if t.halted.(p) then begin
              t.halted.(p) <- false;
              let halt_start = t.halted_since.(p) in
              (match halt_start with
              | Some since -> t.halted_s.(p) <- t.halted_s.(p) +. (t.time -. since)
              | None -> ());
              t.halted_since.(p) <- None;
              if t.tracing then emit_fault t p "restored";
              (* Durable processes restart from the top: their old
                 continuations become stale (epoch bump) and their mailboxes
                 are rebuilt so the fresh incarnation re-reads, per port, the
                 journalled messages it had consumed since its last
                 [mark_stable], then the unconsumed backlog, then the
                 deliveries spooled during the outage. *)
              for pid = 0 to t.nprocesses - 1 do
                let proc = t.processes.(pid) in
                if proc.on = p && proc.durable && proc.state <> Finished then begin
                  (match proc.state with
                  | Blocked _ ->
                      (* The wait died with the processor: close the episode
                         at the halt instant, not the restore. *)
                      let upto =
                        match halt_start with Some s -> s | None -> t.time
                      in
                      proc.blocked_total <-
                        proc.blocked_total
                        +. Float.max 0.0 (upto -. proc.blocked_at)
                  | Runnable | Finished -> ());
                  let rebuilt = Hashtbl.create 4 in
                  let q_for port =
                    match Hashtbl.find_opt rebuilt port with
                    | Some q -> q
                    | None ->
                        let q = Queue.create () in
                        Hashtbl.replace rebuilt port q;
                        q
                  in
                  List.iter
                    (fun (port, at, msg, v) -> Queue.add (at, msg, v) (q_for port))
                    (List.rev proc.journal);
                  Hashtbl.iter
                    (fun port mb -> Queue.transfer mb.msgs (q_for port))
                    proc.mailboxes;
                  List.iter
                    (fun (port, _at, msg, v) ->
                      Queue.add (t.time, msg, v) (q_for port))
                    (List.rev proc.spooled);
                  (* every old mailbox is now empty and has a rebuilt
                     queue; refill in place, keeping high-water marks *)
                  Hashtbl.iter
                    (fun port q -> Queue.transfer q (mailbox proc port).msgs)
                    rebuilt;
                  proc.journal <- [];
                  proc.spooled <- [];
                  proc.epoch <- proc.epoch + 1;
                  proc.state <- Runnable;
                  if t.tracing then
                    emit_fault t p ~msg:(-1) "restart (replay)";
                  Queue.add (proc.pid, proc.epoch, Start proc.body) t.ready.(p)
                end
              done;
              push_event t t.time (Dispatch p)
            end);
        loop ()
  in
  loop ();
  t.time

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
    finish_time = t.time;
    messages = t.messages;
    bytes = t.bytes;
    busy = Array.copy t.busy;
    hops_total = t.hops_total;
    dropped_msgs = t.dropped_msgs;
  }

let fault_tally (t : t) =
  { dropped = t.dropped_msgs; delayed = t.delayed_msgs; duplicated = t.dup_msgs }

(* Per-processor wall-clock during which the processor was alive (not
   halted).  A healthy run reports [t.time] everywhere. *)
let live_times t =
  Array.init (Archi.nprocs t.arch) (fun p ->
      let open_halt =
        match t.halted_since.(p) with Some s -> t.time -. s | None -> 0.0
      in
      Float.max 0.0 (t.time -. t.halted_s.(p) -. open_halt))

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
          match t.halted_since.(proc.on) with Some s -> s | None -> t.time
        else t.time
      in
      let blocked =
        match proc.state with
        | Blocked _ ->
            proc.blocked_total +. Float.max 0.0 (horizon -. proc.blocked_at)
        | Runnable | Finished -> proc.blocked_total
      in
      {
        aname = proc.name;
        on = proc.on;
        busy_s = proc.charged;
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
            Support.Intervals.total ~past:book.past book.live,
            book.transfers )
          :: !acc
      end)
    t.links;
  List.sort compare !acc

let port_depths t =
  let acc = ref [] in
  for pid = 0 to t.nprocesses - 1 do
    let proc = t.processes.(pid) in
    Hashtbl.iter
      (fun port mb ->
        if mb.high > 0 then acc := ((proc.name, port), mb.high) :: !acc)
      proc.mailboxes
  done;
  List.sort compare !acc
