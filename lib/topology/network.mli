(** Static network and traffic model (paper §2.1).

    A network is a set of logical gateways (one per directed communication
    line, each an exponential server with rate μ^a and line latency l_a)
    and a set of connections (source–destination pairs with a fixed route).
    Routing is static, so everything the model needs is captured by the
    incidence sets γ(i) — the gateways on connection i's path — and
    Γ(a) — the connections through gateway a. *)

type gateway = {
  gw_name : string;
  mu : float;  (** Exponential service rate μ^a, packets per unit time. *)
  latency : float;  (** Propagation latency l_a of the outgoing line. *)
}

type connection = {
  conn_name : string;
  path : int list;  (** γ(i): gateway indices in path order, no repeats. *)
}

type t

val create : gateways:gateway array -> connections:connection array -> t
(** Validates and freezes a topology. Raises [Invalid_argument] when a
    path references an unknown gateway, repeats a gateway, or is empty;
    when a service rate is non-positive; when a latency is negative; or
    when names collide. *)

val num_gateways : t -> int
val num_connections : t -> int

val gateway : t -> int -> gateway
val connection : t -> int -> connection

val gateways_of_connection : t -> int -> int list
(** γ(i), in path order. *)

val local_positions : t -> int -> int array
(** [local_positions net i] is aligned with [gateways_of_connection net i]:
    entry [j] is the position of connection [i] within
    [connections_at_gateway] of its path's [j]-th gateway, i.e. its slot
    in that gateway's local rate and queue vectors.  Built once by
    {!create}; the array is the network's own: do not mutate it. *)

val connections_at_gateway : t -> int -> int list
(** Γ(a), in increasing connection index. *)

val fanin : t -> int -> int
(** N^a = |Γ(a)|. *)

val gateway_index : t -> string -> int
(** Index by name. Raises [Not_found]. *)

val connection_index : t -> string -> int

val scale_mu : t -> float -> t
(** [scale_mu net c] multiplies every service rate by [c > 0] — the
    scaling under which TSI steady states must scale linearly
    (Theorem 1). Latencies are unchanged. *)

val with_mu : t -> gw:int -> mu:float -> t
(** [with_mu net ~gw ~mu] replaces gateway [gw]'s service rate with
    [mu > 0], leaving everything else unchanged — the primitive behind
    gateway-degradation fault events (a line cut to a fraction of its
    capacity and later restored). *)

val with_latencies : t -> float array -> t
(** Replaces per-gateway latencies (array indexed by gateway). TSI steady
    states must be invariant under this. *)

val rates_at_gateway : t -> rates:float array -> int -> float array
(** The rate sub-vector of the connections in Γ(a), ordered as
    [connections_at_gateway]. [rates] is indexed by connection. *)

val local_index : t -> conn:int -> gw:int -> int
(** Position of connection [conn] within [connections_at_gateway gw],
    found by a scan of [conn]'s path (hot loops read
    {!local_positions} instead).  Raises [Not_found] when the
    connection does not traverse the gateway. *)

val pp : Format.formatter -> t -> unit
(** Human-readable topology summary. *)
