(** Literal process network templates from the paper.

    {!Expand} leaves message routing to the machine's link layer; this module
    additionally provides the df template exactly as drawn in the paper's
    Fig. 1 for a ring-connected architecture, with explicit [M->W] and
    [W->M] router processes, for structural study and the E5 experiment. *)

val df_ring : nworkers:int -> comp:string -> acc:string -> init:Skel.Value.t -> Graph.t
(** [df_ring ~nworkers ...] builds the Fig. 1 template for a ring of
    [nworkers + 1] processors: the [Master<acc, z>] process on P0, a
    [Worker<comp>] on each of P1..Pn, and on every intermediate processor
    P1..P(n-1) a pair of [M->W] / [W->M] routers forwarding task packets
    outward and results backward along the ring. Raises [Invalid_argument]
    when [nworkers < 1]. *)
