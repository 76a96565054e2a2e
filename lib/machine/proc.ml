type pid = int

exception Not_in_process

type _ Effect.t +=
  | Send : pid * string * Skel.Value.t -> unit Effect.t
  | Recv : string -> Skel.Value.t Effect.t
  | Recv_any :
      string list * float
      -> (string * Skel.Value.t) option Effect.t
  | Compute : float -> unit Effect.t
  | Sleep_until : float -> unit Effect.t
  | Now : float Effect.t
  | Mark_stable : unit Effect.t

(* Outside a process body no handler answers. *)
let perform e =
  try Effect.perform e with Effect.Unhandled _ -> raise Not_in_process

let now () = perform Now
let compute cycles = perform (Compute cycles)
let send dst port v = perform (Send (dst, port, v))
let recv port = perform (Recv port)
let recv_deadline ports ~deadline = perform (Recv_any (ports, deadline))
let sleep_until at = perform (Sleep_until at)
let mark_stable () = perform Mark_stable
