module G = Procnet.Graph
module V = Skel.Value
module Macro = Macro

exception Executive_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Executive_error m)) fmt

type outcome = Completed | Stalled of { collected : int; expected : int }

type recovery = { df_timeout : float; max_strikes : int }

let recovery ?(max_strikes = 3) df_timeout =
  if df_timeout <= 0.0 then error "recovery: df_timeout must be positive";
  if max_strikes <= 0 then error "recovery: max_strikes must be positive";
  { df_timeout; max_strikes }

type result = {
  value : V.t;
  outputs : V.t list;
  outcome : outcome;
  stats : Machine.Sim.stats;
  output_times : float list;
  latencies : float list;
  first_latency : float;
  period : float option;
  input_period : float option;
  deadline_misses : int;
  reissues : int;
  reissue_times : float list;
  retired_workers : int;
  checkpoints : int;
  replayed_frames : int;
  sim : Machine.Sim.t;
}

(* Mutable run-wide state shared by the spawned processes. *)
type collector = {
  mutable outs_rev : (V.t * float) list;
  mutable final_state : V.t option;
  mutable reissues : int;
  mutable reissue_rev : float list;
  mutable retired : int;
  mutable checkpoints : int;
  mutable replayed : int;
}

(* Stable storage for a durable control process (df master or itermem mem):
   plain OCaml state outside the simulated machine, so it survives a
   simulated processor crash. [snap] is the last checkpoint — the next frame
   to run and the mode state to resume it with; [emitted] is a write-ahead
   count of frames whose output was already sent downstream, so a replaying
   incarnation recomputes them without re-emitting. *)
type stable_cell = { mutable snap : (int * V.t) option; mutable emitted : int }

(* A user-function call: charge its cost model, then produce its value. *)
let call table fn v =
  if fn = "__id" then v
  else begin
    let entry = Skel.Funtable.find table fn in
    Machine.Sim.compute (entry.cost v);
    entry.apply v
  end

(* Map worker node id -> index within its master's worker pool. The order of
   the master's "task" edges defines the indices, matching primes below. *)
let worker_indices g =
  let table = Hashtbl.create 16 in
  Array.iter
    (fun (node : G.node) ->
      match node.kind with
      | G.DfMaster _ | G.TfMaster _ ->
          List.iteri
            (fun i (e : G.edge) -> Hashtbl.replace table e.dst i)
            (G.out_edges_from_port g node.id "task")
      | _ -> ())
    (G.nodes g);
  table

let behaviour ~table ~graph:g ~frames ~input ~input_period ~collector
    ~widx_table ~recovery:recov ~checkpoint ~cells (node : G.node) () =
  let outs port =
    List.map (fun (e : G.edge) -> (e.dst, e.dst_port)) (G.out_edges_from_port g node.id port)
  in
  let send_all port v = List.iter (fun (dst, dport) -> Machine.Sim.send dst dport v) (outs port) in
  (* Emit downstream, or record as the program output when this node is the
     sink of the graph. *)
  let emit port v =
    match outs port with
    | [] ->
        if node.id = G.exit_node g then
          collector.outs_rev <- (v, Machine.Sim.now ()) :: collector.outs_rev
        else ()
    | _ -> send_all port v
  in
  let each_frame f =
    for i = 0 to frames - 1 do
      f i
    done
  in
  match node.kind with
  | G.Input fn ->
      each_frame (fun i ->
          (match input_period with
          | Some p -> Machine.Sim.sleep_until (float_of_int i *. p)
          | None -> ());
          let x = call table fn (V.Tuple [ input; V.Int i ]) in
          emit "out" x)
  | G.Output fn ->
      each_frame (fun _ ->
          let v = Machine.Sim.recv "in" in
          let y = call table fn v in
          collector.outs_rev <- (y, Machine.Sim.now ()) :: collector.outs_rev)
  | G.Compute fn | G.ScmCompute { fn; _ } ->
      each_frame (fun _ ->
          let v = Machine.Sim.recv "in" in
          emit "out" (call table fn v))
  | G.ScmSplit { fn; nparts } ->
      each_frame (fun _ ->
          let v = Machine.Sim.recv "in" in
          let parts =
            match call table fn (V.Tuple [ V.Int nparts; v ]) with
            | V.List parts -> parts
            | other -> error "scm split %s returned %s, not a list" fn (V.to_string other)
          in
          if List.length parts <> nparts then
            error "scm split %s returned %d parts, expected %d" fn
              (List.length parts) nparts;
          List.iteri (fun i part -> send_all (Printf.sprintf "p%d" i) part) parts)
  | G.ScmMerge { fn; nparts } ->
      each_frame (fun _ ->
          let results =
            List.init nparts (fun i -> Machine.Sim.recv (Printf.sprintf "p%d" i))
          in
          emit "out" (call table fn (V.List results)))
  | G.DfMaster { acc; init; nworkers; state } when
      state <> Skel.Ir.Stateless || checkpoint <> None ->
      (* The stateful-farm engine: master-held state with a per-mode task
         routing and merge discipline, plus optional checkpoint/replay.
         Strictly opt-in — a stateless farm without checkpointing runs the
         paper's original protocol below, byte-identical traces included.

         Wire protocol (workers are mode-agnostic):
         - env broadcast  [Tuple [Str "env"; env]]   (readonly mode only)
         - task           [Tuple [Str "t"; Int frame; Int seq; payload]]
         - reply          [Tuple [Int widx; Int frame; Int seq; y]]
         Replies are buffered by [seq] and folded 0..n-1 once the frame
         completes, so the merge order equals the sequential oracle's
         regardless of arrival order; duplicates (same frame and seq — the
         signature of a replay) are first-wins discarded. *)
      let task_targets = Array.of_list (outs "task") in
      if Array.length task_targets <> nworkers then
        error "df master has %d task channels for %d workers"
          (Array.length task_targets) nworkers;
      if recov <> None then
        error
          "df recovery (reissue-on-timeout) is not supported together with \
           stateful farms or checkpointing";
      let cell = Hashtbl.find cells node.id in
      let as_state_pair what = function
        | V.Tuple [ a; b ] -> (a, b)
        | other -> error "%s df init must be a pair, got %s" what (V.to_string other)
      in
      (* Mode state held by the master; [seed] restarts the fold each frame
         (except accumulator mode, whose fold result is the carried state). *)
      let owner_states =
        match state with
        | Skel.Ir.Owner -> (
            match fst (as_state_pair "owner" init) with
            | V.List ss -> Array.of_list ss
            | other ->
                error "owner df init must carry a state list, got %s"
                  (V.to_string other))
        | _ -> [||]
      in
      let resource =
        ref
          (match state with
          | Skel.Ir.Resource -> fst (as_state_pair "resource" init)
          | _ -> V.Unit)
      in
      let carry = ref init in
      let seed =
        match state with
        | Skel.Ir.Stateless | Skel.Ir.Accumulator -> init
        | Skel.Ir.Read_only | Skel.Ir.Owner | Skel.Ir.Resource ->
            snd (as_state_pair (Skel.Ir.state_mode_name state) init)
      in
      let env =
        match state with
        | Skel.Ir.Read_only -> Some (fst (as_state_pair "readonly" init))
        | _ -> None
      in
      let snapshot () =
        match state with
        | Skel.Ir.Stateless | Skel.Ir.Read_only -> V.Unit
        | Skel.Ir.Accumulator -> !carry
        | Skel.Ir.Owner -> V.List (Array.to_list owner_states)
        | Skel.Ir.Resource -> !resource
      in
      let restore st =
        match state with
        | Skel.Ir.Stateless | Skel.Ir.Read_only -> ()
        | Skel.Ir.Accumulator -> carry := st
        | Skel.Ir.Owner -> (
            match st with
            | V.List ss -> List.iteri (fun i s -> owner_states.(i) <- s) ss
            | _ -> ())
        | Skel.Ir.Resource -> resource := st
      in
      let start_frame =
        match cell.snap with
        | Some (f0, st) ->
            restore st;
            f0
        | None -> 0
      in
      (* Frames already emitted will be recomputed from the checkpoint but
         not re-emitted: that is the replay work a restart costs. *)
      collector.replayed <- collector.replayed + (cell.emitted - start_frame);
      (match env with
      | Some e ->
          (* (Re)broadcast the shared environment — workers treat it as an
             idempotent assignment, so a replaying master may repeat it. *)
          Array.iter
            (fun (dst, dport) ->
              Machine.Sim.send dst dport (V.Tuple [ V.Str "env"; e ]))
            task_targets
      | None -> ());
      for f = start_frame to frames - 1 do
        let xs =
          match Machine.Sim.recv "in" with
          | V.List xs -> xs
          | other -> error "df input is %s, not a list" (V.to_string other)
        in
        let items = Array.of_list xs in
        let n = Array.length items in
        let got = Array.make n None in
        let ngot = ref 0 in
        let send_task widx seq payload =
          let dst, dport = task_targets.(widx) in
          Machine.Sim.send dst dport
            (V.Tuple [ V.Str "t"; V.Int f; V.Int seq; payload ])
        in
        (* Receive one reply; [accept widx seq y] is called exactly once per
           fresh (frame, seq); duplicates invoke [dup widx] instead. *)
        let receive ~accept ~dup =
          match Machine.Sim.recv "result" with
          | V.Tuple [ V.Int widx; V.Int rf; V.Int seq; y ] ->
              if rf = f && seq >= 0 && seq < n && got.(seq) = None then
                accept widx seq y
              else if rf = f then dup widx
              (* replies for earlier frames are replay leftovers: ignore *)
          | other -> error "df master: bad result message %s" (V.to_string other)
        in
        (match state with
        | Skel.Ir.Stateless | Skel.Ir.Accumulator | Skel.Ir.Read_only ->
            (* Dynamically load-balanced, like the plain farm; the payload is
               the bare item (the worker adds the env for readonly). *)
            let queue = Queue.create () in
            Array.iteri (fun seq _ -> Queue.add seq queue) items;
            let feed widx =
              if not (Queue.is_empty queue) then begin
                let seq = Queue.pop queue in
                send_task widx seq items.(seq)
              end
            in
            for w = 0 to nworkers - 1 do
              feed w
            done;
            while !ngot < n do
              receive
                ~accept:(fun widx seq y ->
                  got.(seq) <- Some y;
                  incr ngot;
                  feed widx)
                ~dup:feed
            done
        | Skel.Ir.Owner ->
            (* Partitioned state: task [seq] belongs to partition
               [seq mod nworkers], whose state threads through its worker
               with at most one task of the partition outstanding. *)
            let pending = Array.make nworkers [] in
            for seq = n - 1 downto 0 do
              let k = seq mod nworkers in
              pending.(k) <- seq :: pending.(k)
            done;
            let feed k =
              match pending.(k) with
              | seq :: rest ->
                  pending.(k) <- rest;
                  send_task k seq (V.Tuple [ owner_states.(k); items.(seq) ])
              | [] -> ()
            in
            for k = 0 to nworkers - 1 do
              feed k
            done;
            while !ngot < n do
              receive
                ~accept:(fun _widx seq y ->
                  match y with
                  | V.Tuple [ s'; y ] ->
                      let k = seq mod nworkers in
                      owner_states.(k) <- s';
                      got.(seq) <- Some y;
                      incr ngot;
                      feed k
                  | other ->
                      error "owner df compute must return (state', y), got %s"
                        (V.to_string other))
                ~dup:(fun _ -> ())
            done
        | Skel.Ir.Resource ->
            (* Serialised shared resource: at most one task outstanding in
               the whole farm, round-robin over the workers (the farm with
               feedback — the state travels out with each task and back with
               its reply). *)
            let issue seq =
              if seq < n then
                send_task (seq mod nworkers) seq
                  (V.Tuple [ !resource; items.(seq) ])
            in
            issue 0;
            while !ngot < n do
              receive
                ~accept:(fun _widx seq y ->
                  if seq <> !ngot then () (* out-of-order: replay leftover *)
                  else
                    match y with
                    | V.Tuple [ s'; y ] ->
                        resource := s';
                        got.(seq) <- Some y;
                        incr ngot;
                        issue (seq + 1)
                    | other ->
                        error
                          "resource df compute must return (state', y), got %s"
                          (V.to_string other))
                ~dup:(fun _ -> ())
            done);
        let z0 = match state with Skel.Ir.Accumulator -> !carry | _ -> seed in
        let z =
          Array.fold_left
            (fun z y ->
              match y with
              | Some y -> call table acc (V.Tuple [ z; y ])
              | None -> assert false)
            z0 got
        in
        if state = Skel.Ir.Accumulator then carry := z;
        if cell.emitted <= f then begin
          (* Write-ahead: bump the count in the same zero-duration segment
             as the send, so a crash cannot double-emit a frame. *)
          cell.emitted <- f + 1;
          emit "out" z
        end;
        match checkpoint with
        | Some k when (f + 1) mod k = 0 ->
            cell.snap <- Some (f + 1, snapshot ());
            Machine.Sim.mark_stable ();
            collector.checkpoints <- collector.checkpoints + 1
        | _ -> ()
      done
  | G.DfMaster { acc; init; nworkers; state = _ } -> (
      let task_targets = Array.of_list (outs "task") in
      if Array.length task_targets <> nworkers then
        error "df master has %d task channels for %d workers"
          (Array.length task_targets) nworkers;
      match recov with
      | None ->
          each_frame (fun _ ->
              let xs =
                match Machine.Sim.recv "in" with
                | V.List xs -> xs
                | other -> error "df input is %s, not a list" (V.to_string other)
              in
              let queue = Queue.create () in
              List.iter (fun x -> Queue.add x queue) xs;
              let accv = ref init in
              let outstanding = ref 0 in
              let feed widx =
                let dst, dport = task_targets.(widx) in
                Machine.Sim.send dst dport (Queue.pop queue);
                incr outstanding
              in
              for w = 0 to nworkers - 1 do
                if not (Queue.is_empty queue) then feed w
              done;
              while !outstanding > 0 do
                match Machine.Sim.recv "result" with
                | V.Tuple [ V.Int widx; y ] ->
                    decr outstanding;
                    accv := call table acc (V.Tuple [ !accv; y ]);
                    if not (Queue.is_empty queue) then feed widx
                | other ->
                    error "df master: bad result message %s" (V.to_string other)
              done;
              emit "out" !accv)
      | Some { df_timeout; max_strikes } ->
          (* Fault-tolerant farm (FastFlow-style reissue-on-timeout). Tasks
             are sequence-tagged; an assignment outstanding past its deadline
             is requeued and handed to an idle worker, the first reply per
             task wins (stale or duplicated replies are discarded), and a
             worker that times out [max_strikes] times in a row — with no
             reply in between — is retired. Retirement persists across
             frames: the farm runs degraded. *)
          let exception Farm_stalled in
          let retired = Array.make nworkers false in
          let strikes = Array.make nworkers 0 in
          (try
             each_frame (fun _ ->
                 let xs =
                   match Machine.Sim.recv "in" with
                   | V.List xs -> xs
                   | other ->
                       error "df input is %s, not a list" (V.to_string other)
                 in
                 let items = Array.of_list xs in
                 let n = Array.length items in
                 let done_ = Array.make n false in
                 let completed = ref 0 in
                 let accv = ref init in
                 let queue = Queue.create () in
                 Array.iteri (fun seq _ -> Queue.add seq queue) items;
                 let idle = Queue.create () in
                 let is_idle = Array.make nworkers false in
                 for w = 0 to nworkers - 1 do
                   if not retired.(w) then begin
                     is_idle.(w) <- true;
                     Queue.add w idle
                   end
                 done;
                 (* seq -> (worker, absolute deadline); at most one live
                    assignment per task *)
                 let assignments = Hashtbl.create 16 in
                 let re_idle widx =
                   if (not retired.(widx)) && not is_idle.(widx) then begin
                     is_idle.(widx) <- true;
                     Queue.add widx idle
                   end
                 in
                 let feed_idle () =
                   let progress = ref true in
                   while !progress do
                     progress := false;
                     (* skip tasks completed by a late reply while requeued *)
                     while
                       (not (Queue.is_empty queue)) && done_.(Queue.peek queue)
                     do
                       ignore (Queue.pop queue)
                     done;
                     if
                       (not (Queue.is_empty queue)) && not (Queue.is_empty idle)
                     then begin
                       let widx = Queue.pop idle in
                       is_idle.(widx) <- false;
                       let seq = Queue.pop queue in
                       let dst, dport = task_targets.(widx) in
                       Machine.Sim.send dst dport
                         (V.Tuple [ V.Int seq; items.(seq) ]);
                       Hashtbl.replace assignments seq
                         (widx, Machine.Sim.now () +. df_timeout);
                       progress := true
                     end
                   done
                 in
                 while !completed < n do
                   feed_idle ();
                   if Hashtbl.length assignments = 0 then
                     (* nothing in flight and nothing issuable: every live
                        worker has been retired *)
                     raise Farm_stalled;
                   let dl =
                     Hashtbl.fold
                       (fun _ (_, d) acc -> Float.min d acc)
                       assignments infinity
                   in
                   match Machine.Sim.recv_deadline [ "result" ] ~deadline:dl with
                   | Some (_, V.Tuple [ V.Int widx; V.Tuple [ V.Int seq; y ] ])
                     ->
                       (* any reply proves the worker alive: strikes count
                          consecutive timeouts, so a transient message fault
                          cannot slowly retire a healthy worker *)
                       if widx >= 0 && widx < nworkers && not retired.(widx)
                       then strikes.(widx) <- 0;
                       re_idle widx;
                       if seq >= 0 && seq < n && not done_.(seq) then begin
                         done_.(seq) <- true;
                         incr completed;
                         Hashtbl.remove assignments seq;
                         accv := call table acc (V.Tuple [ !accv; y ])
                       end
                   | Some (_, other) ->
                       error "df master: bad result message %s"
                         (V.to_string other)
                   | None ->
                       let nowt = Machine.Sim.now () in
                       let expired =
                         Hashtbl.fold
                           (fun seq (widx, d) acc ->
                             if d <= nowt then (seq, widx) :: acc else acc)
                           assignments []
                         |> List.sort compare
                       in
                       List.iter
                         (fun (seq, widx) ->
                           Hashtbl.remove assignments seq;
                           Queue.add seq queue;
                           collector.reissues <- collector.reissues + 1;
                           collector.reissue_rev <-
                             nowt :: collector.reissue_rev;
                           strikes.(widx) <- strikes.(widx) + 1;
                           if strikes.(widx) >= max_strikes then begin
                             if not retired.(widx) then begin
                               retired.(widx) <- true;
                               collector.retired <- collector.retired + 1
                             end
                           end
                           else
                             (* optimistic: the worker may only be slow; its
                                mailbox serialises any extra tasks *)
                             re_idle widx)
                         expired
                 done;
                 emit "out" !accv)
           with Farm_stalled -> ()))
  | G.DfWorker { comp } ->
      let my_index =
        match Hashtbl.find_opt widx_table node.id with
        | Some i -> i
        | None -> error "df worker %s is not wired to a master" node.label
      in
      (* A worker speaks the engine protocol exactly when its master does. *)
      let engine_master =
        List.exists
          (fun (e : G.edge) ->
            e.dst_port = "task"
            &&
            match (G.node g e.src).kind with
            | G.DfMaster { state; _ } ->
                state <> Skel.Ir.Stateless || checkpoint <> None
            | _ -> false)
          (G.in_edges g node.id)
      in
      if engine_master then begin
        (* Mode-agnostic: remember the broadcast env (readonly mode) and
           wrap it around each task payload; echo frame and seq so the
           master can merge in order and discard replay duplicates. *)
        let env = ref None in
        let rec serve () =
          (match Machine.Sim.recv "task" with
          | V.Tuple [ V.Str "env"; e ] -> env := Some e
          | V.Tuple [ V.Str "t"; V.Int frame; V.Int seq; payload ] ->
              let arg =
                match !env with
                | Some e -> V.Tuple [ e; payload ]
                | None -> payload
              in
              let y = call table comp arg in
              send_all "out"
                (V.Tuple [ V.Int my_index; V.Int frame; V.Int seq; y ])
          | other -> error "df worker: bad task message %s" (V.to_string other));
          serve ()
        in
        serve ()
      end
      else
        let rec serve () =
          (match recov with
          | None ->
              let v = Machine.Sim.recv "task" in
              let y = call table comp v in
              send_all "out" (V.Tuple [ V.Int my_index; y ])
          | Some _ -> (
              (* sequence-tagged protocol: echo the tag so the master can
                 discard stale duplicates *)
              match Machine.Sim.recv "task" with
              | V.Tuple [ V.Int seq; x ] ->
                  let y = call table comp x in
                  send_all "out"
                    (V.Tuple [ V.Int my_index; V.Tuple [ V.Int seq; y ] ])
              | other ->
                  error "df worker: bad task message %s" (V.to_string other)));
          serve ()
        in
        serve ()
  | G.TfMaster { acc; init; nworkers } ->
      let task_targets = Array.of_list (outs "task") in
      if Array.length task_targets <> nworkers then
        error "tf master has %d task channels for %d workers"
          (Array.length task_targets) nworkers;
      each_frame (fun _ ->
          let xs =
            match Machine.Sim.recv "in" with
            | V.List xs -> xs
            | other -> error "tf input is %s, not a list" (V.to_string other)
          in
          let queue = Queue.create () in
          List.iter (fun x -> Queue.add x queue) xs;
          let accv = ref init in
          let idle = Queue.create () in
          for w = 0 to nworkers - 1 do
            Queue.add w idle
          done;
          let outstanding = ref 0 in
          let feed_idle () =
            while (not (Queue.is_empty queue)) && not (Queue.is_empty idle) do
              let widx = Queue.pop idle in
              let dst, dport = task_targets.(widx) in
              Machine.Sim.send dst dport (Queue.pop queue);
              incr outstanding
            done
          in
          feed_idle ();
          while !outstanding > 0 do
            (match Machine.Sim.recv "result" with
            | V.Tuple [ V.Int widx; V.Tuple [ V.List subs; y ] ] ->
                decr outstanding;
                Queue.add widx idle;
                List.iter (fun s -> Queue.add s queue) subs;
                accv := call table acc (V.Tuple [ !accv; y ])
            | other -> error "tf master: bad result message %s" (V.to_string other));
            feed_idle ()
          done;
          emit "out" !accv)
  | G.TfWorker { work } ->
      let my_index =
        match Hashtbl.find_opt widx_table node.id with
        | Some i -> i
        | None -> error "tf worker %s is not wired to a master" node.label
      in
      let rec serve () =
        let v = Machine.Sim.recv "task" in
        (match call table work v with
        | V.Tuple [ V.List _; _ ] as reply ->
            send_all "out" (V.Tuple [ V.Int my_index; reply ])
        | other -> error "tf work %s returned %s" work (V.to_string other));
        serve ()
      in
      serve ()
  | G.Mem { init } ->
      (* Durable mem: with [checkpoint = Some k] the loop state is
         checkpointed every [k] frames; a restarted incarnation resumes at
         the checkpoint, replaying the journalled updates, and skips
         re-sending states it already sent (write-ahead [emitted] count). A
         fresh cell starts at frame 0 with nothing sent, so without
         checkpointing this is the plain send/receive loop. *)
      let cell = Hashtbl.find cells node.id in
      let start_frame, st0 =
        match cell.snap with Some (f0, st) -> (f0, st) | None -> (0, init)
      in
      collector.replayed <- collector.replayed + (cell.emitted - start_frame);
      let state = ref st0 in
      for f = start_frame to frames - 1 do
        if cell.emitted <= f then begin
          cell.emitted <- f + 1;
          send_all "out" !state
        end;
        state := Machine.Sim.recv "update";
        match checkpoint with
        | Some k when (f + 1) mod k = 0 ->
            cell.snap <- Some (f + 1, !state);
            Machine.Sim.mark_stable ();
            collector.checkpoints <- collector.checkpoints + 1
        | _ -> ()
      done;
      collector.final_state <- Some !state
  | G.Join ->
      each_frame (fun _ ->
          let s = Machine.Sim.recv "state" in
          let d = Machine.Sim.recv "data" in
          send_all "out" (V.Tuple [ s; d ]))
  | G.Fork ->
      each_frame (fun _ ->
          match Machine.Sim.recv "in" with
          | V.Tuple [ a; b ] ->
              send_all "fst" a;
              send_all "snd" b
          | other -> error "fork received %s, not a pair" (V.to_string other))
  | G.Router _ ->
      error "explicit router processes are not executable (Fig. 1 template is structural)"

let is_itermem g =
  Array.exists
    (fun (node : G.node) -> match node.kind with G.Mem _ -> true | _ -> false)
    (G.nodes g)

let run ?(trace = false) ?input_period ?(faults = [])
    ?(restores = []) ?(link_faults = []) ?recovery:recov ?checkpoint_every
    ~table ~arch ~placement ~graph:g ~frames ~input () =
  if frames <= 0 then error "frames must be positive";
  (match checkpoint_every with
  | Some k when k <= 0 -> error "checkpoint_every must be positive, got %d" k
  | _ -> ());
  if Array.length placement <> G.nnodes g then
    error "placement has %d entries for %d processes" (Array.length placement)
      (G.nnodes g);
  let sim = Machine.Sim.create ~trace arch in
  List.iter (fun (p, at) -> Machine.Sim.halt_processor sim ~at p) faults;
  List.iter (fun (p, at) -> Machine.Sim.restore_processor sim ~at p) restores;
  List.iter (Machine.Sim.add_fault sim) link_faults;
  let collector =
    {
      outs_rev = [];
      final_state = None;
      reissues = 0;
      reissue_rev = [];
      retired = 0;
      checkpoints = 0;
      replayed = 0;
    }
  in
  let widx_table = worker_indices g in
  (* Stable cells for the control processes that can be made durable; with
     checkpointing enabled those processes survive a processor halt. *)
  let cells = Hashtbl.create 8 in
  Array.iter
    (fun (node : G.node) ->
      match node.kind with
      | G.DfMaster _ | G.Mem _ ->
          Hashtbl.replace cells node.id { snap = None; emitted = 0 }
      | _ -> ())
    (G.nodes g);
  let durable (node : G.node) =
    checkpoint_every <> None
    && match node.kind with G.DfMaster _ | G.Mem _ -> true | _ -> false
  in
  Array.iter
    (fun (node : G.node) ->
      let pid =
        Machine.Sim.spawn sim ~name:node.label ~durable:(durable node)
          ~on:placement.(node.id)
          (behaviour ~table ~graph:g ~frames ~input ~input_period ~collector
             ~widx_table ~recovery:recov ~checkpoint:checkpoint_every ~cells
             node)
      in
      if pid <> node.id then error "process ids out of sync with node ids")
    (G.nodes g);
  (* Non-stream graphs receive their input from the environment. *)
  if not (is_itermem g) then
    for i = 0 to frames - 1 do
      let at = match input_period with Some p -> float_of_int i *. p | None -> 0.0 in
      Machine.Sim.inject sim ~at (G.entry g) "in" input
    done;
  let _finish = Machine.Sim.run sim in
  let outs = List.rev collector.outs_rev in
  let collected = List.length outs in
  let outcome =
    if collected = frames then Completed
    else Stalled { collected; expected = frames }
  in
  let outputs = List.map fst outs in
  let output_times = List.map snd outs in
  let first_latency = match output_times with t :: _ -> t | [] -> 0.0 in
  let period =
    (* a single frame measures a latency, never a steady period *)
    match output_times with
    | [] | [ _ ] -> None
    | t0 :: _ ->
        let last = List.nth output_times (List.length output_times - 1) in
        Some ((last -. t0) /. float_of_int (List.length output_times - 1))
  in
  let value =
    match collector.final_state with
    | Some st -> V.Tuple [ st; V.List outputs ]
    | None -> ( match List.rev outputs with last :: _ -> last | [] -> V.Unit)
  in
  let latencies =
    let p = Option.value ~default:0.0 input_period in
    List.mapi (fun i t -> t -. (float_of_int i *. p)) output_times
  in
  let deadline_misses =
    match input_period with
    | None -> 0
    | Some p -> List.length (List.filter (fun l -> l > p +. 1e-12) latencies)
  in
  {
    value;
    outputs;
    outcome;
    stats = Machine.Sim.stats sim;
    output_times;
    latencies;
    first_latency;
    period;
    input_period;
    deadline_misses;
    reissues = collector.reissues;
    reissue_times = List.rev collector.reissue_rev;
    retired_workers = collector.retired;
    checkpoints = collector.checkpoints;
    replayed_frames = collector.replayed;
    sim;
  }

let run_schedule ?input_period ~table ~schedule ~frames ~input () =
  run ?input_period ~table
    ~arch:schedule.Syndex.Schedule.arch
    ~placement:schedule.Syndex.Schedule.placement
    ~graph:schedule.Syndex.Schedule.graph ~frames ~input ()

let timeline ?slo r =
  let tl = Skipper_trace.Event.create () in
  Skipper_trace.Event.append tl (Machine.Sim.timeline r.sim);
  Option.iter (Skipper_trace.Series.Slo.emit tl) slo;
  tl

(* Default window: the input period when the run was paced (one window per
   frame slot), else 5 ms — wide enough that a short unpaced run still gets
   a handful of windows. *)
let series ?width r =
  let tl = Machine.Sim.timeline r.sim in
  if Skipper_trace.Event.length tl = 0 then
    Error
      "tracing was not enabled: the timeline holds no events (run with \
       ~trace:true)"
  else begin
    let p = Option.value ~default:0.0 r.input_period in
    let width =
      match width with Some w -> w | None -> if p > 0.0 then p else 5e-3
    in
    let expected =
      match r.outcome with
      | Completed -> List.length r.outputs
      | Stalled { expected; _ } -> expected
    in
    let injections = List.init expected (fun i -> float_of_int i *. p) in
    Skipper_trace.Series.build ~width
      ~nprocs:(Array.length r.stats.Machine.Sim.busy)
      ~horizon:r.stats.Machine.Sim.finish_time ~output_times:r.output_times
      ~latencies:r.latencies ?input_period:r.input_period ~injections
      ~reissue_times:r.reissue_times tl
  end

let metrics r =
  Machine.Metrics.analyse ~deadline_misses:r.deadline_misses
    ~reissues:r.reissues ~latencies:r.latencies r.sim

let summary r =
  let period_s =
    match r.period with
    | Some p -> Printf.sprintf "%.2f ms" (p *. 1e3)
    | None -> "n/a"
  in
  let outcome_s =
    match r.outcome with
    | Completed -> "completed"
    | Stalled { collected; expected } ->
        Printf.sprintf "STALLED after %d of %d outputs" collected expected
  in
  let fault_s =
    let dropped = r.stats.Machine.Sim.dropped_msgs in
    if dropped > 0 || r.reissues > 0 || r.deadline_misses > 0
       || r.retired_workers > 0
    then
      Printf.sprintf
        "\nfaults: %d dropped messages, %d reissues, %d retired workers, %d deadline misses"
        dropped r.reissues r.retired_workers r.deadline_misses
    else ""
  in
  let ckpt_s =
    if r.checkpoints > 0 || r.replayed_frames > 0 then
      Printf.sprintf "\ncheckpoints: %d taken, %d frames replayed"
        r.checkpoints r.replayed_frames
    else ""
  in
  Printf.sprintf
    "value: %s\nframes: %d (%s)\nfirst latency: %.2f ms, steady period: %s\nmessages: %d, bytes: %d%s%s"
    (Skel.Value.to_string r.value)
    (List.length r.outputs)
    outcome_s
    (r.first_latency *. 1e3) period_s
    r.stats.Machine.Sim.messages r.stats.Machine.Sim.bytes fault_s ckpt_s
