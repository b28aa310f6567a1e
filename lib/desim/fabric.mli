(** The packet network of paper §2.1, assembled once: Poisson sources,
    exponential-server gateways and line latencies over one {!Sim}, one
    {!Packet.Pool} and one {!Measure} collector.

    A packet enters its path's first gateway when its source emits it.
    On leaving a gateway it crosses that gateway's line latency to the
    next hop, or to delivery after the last one.  The collector counts
    per-(connection, hop) occupancy, end-to-end delays, deliveries and
    drops.  Every handler is registered once at construction, so no
    closure is built per event.

    {!Netsim}'s shard worker and the closed loop both run on this
    fabric; each passes only what differs between them: RNG streams
    pre-split in its own order, an optional per-hop class draw and an
    optional delivery hook. *)

type t

val create :
  sim:Sim.t ->
  gateways:Ffc_topology.Network.gateway array ->
  paths:int array array ->
  rates:float array ->
  qdisc:Qdisc.t ->
  ?buffer_limit:int ->
  server_rng:(int -> Ffc_numerics.Rng.t) ->
  source_rng:(int -> Ffc_numerics.Rng.t) ->
  ?klass:(int -> int -> int) ->
  ?on_deliver:(int -> float -> unit) ->
  unit ->
  t
(** Builds the network on [sim] and starts every source.

    - [gateways.(a)] gives gateway [a]'s μ and outgoing line latency;
      [server_rng a] is its service-time stream.
    - [paths.(i)] is connection [i]'s path as indices into [gateways];
      [rates.(i)] is its initial Poisson rate and [source_rng i] its
      interarrival stream.
    - [qdisc] and [buffer_limit] configure every gateway (see
      {!Server.create}); a packet dropped at a full gateway is counted
      and freed.
    - [klass i hop], when given, is the priority class of connection
      [i]'s packet on arrival at its [hop]-th gateway, drawn before the
      gateway draws the packet's work.
    - [on_deliver i delay] fires for each delivered packet of connection
      [i], after the collector has counted it. *)

val measure : t -> Measure.t
(** The collector, with one slot per (connection, hop) of [paths]. *)

val set_rate : t -> conn:int -> float -> unit
(** Changes connection [conn]'s sending rate ({!Source.set_rate}). *)

val emitted : t -> conn:int -> int
(** Packets connection [conn]'s source has emitted so far. *)

val injections : t -> int
(** Gateway arrivals so far, forwarded hops included. *)
