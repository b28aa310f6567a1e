(** Packet-level simulation of a whole network (paper §2.1 made
    concrete).

    Assembles Poisson sources, exponential servers, and line latencies
    from a {!Ffc_topology.Network.t}; runs to a horizon; and reports
    time-average per-connection queue lengths at every gateway,
    end-to-end delays, and delivered throughput over the post-warmup
    window.  Used to validate the analytic Q(r) functions (experiment
    E12), to study feedback with real delays (E13), and — rebuilt
    around a struct-of-arrays packet pool, coded events, and a
    timing-wheel calendar — to reach 10⁵–10⁶ concurrent connections
    (E27).

    {b Sharding.}  The network is decomposed into connected components
    (gateway domains no connection crosses between); [shards] groups
    consecutive components and simulates the groups on
    {!Ffc_numerics.Pool} domains.  Every entity (server, class drawer,
    source) owns a SplitMix64 stream pre-split from the seed in fixed
    global order, so a component's sample path — and therefore every
    reported statistic — is bit-identical whatever the shard count or
    [jobs]; trace events are emitted grouped by component in canonical
    component order, which makes traced runs byte-identical too.

    The Fair Share discipline is realized exactly as §2.2 defines it:
    each packet is independently thinned into a priority level with
    probability proportional to the level's rate increment, and gateways
    run preemptive-resume priority service. *)

open Ffc_topology

type discipline =
  | Fifo
  | Fs_priority  (** Fair Share: thinning + preemptive priority. *)
  | Fair_queueing  (** Bid-based Demers–Keshav–Shenker fair queueing. *)

val qdisc_of : discipline -> Qdisc.t
(** The gateway queue discipline a packet discipline runs on. *)

val fs_class_table : local_rates:float array -> rate:float -> (int * float) array
(** Fair Share thinning at one gateway: a packet of a connection sending
    at [rate], among the gateway's [local_rates], belongs to priority
    level [j] with probability (level [j]'s rate increment)/[rate], for
    each level whose threshold is at most [rate].  The table lists those
    levels with their cumulative rates; it is empty when [rate <= 0]. *)

val draw_fs_class : (int * float) array -> Ffc_numerics.Rng.t -> rate:float -> int
(** Draws one packet's level from a {!fs_class_table} (one uniform draw,
    also for an empty table, which gives level 0). *)

type result

val run :
  net:Network.t ->
  rates:float array ->
  discipline:discipline ->
  seed:int ->
  ?warmup:float ->
  ?shards:int ->
  ?jobs:int ->
  ?buffer_limit:int ->
  horizon:float ->
  unit ->
  result
(** Simulates with per-connection Poisson rates [rates]. Statistics cover
    [(warmup, horizon)]; [warmup] defaults to 10% of the horizon.

    Each shard runs on a timing wheel whose tick is auto-sized to the
    expected event rate.  [shards] (default 1; clamped to the component count)
    splits independent components over up to [jobs] domains — results
    and traces are byte-identical at any [shards]/[jobs].
    [buffer_limit] caps each gateway's system occupancy, arrivals
    beyond it are dropped at the door (counted in {!drops}).

    Raises [Invalid_argument] on negative rates, a rate-vector length
    mismatch, [horizon <= warmup], or [shards < 1]. *)

val mean_queue : result -> gw:int -> conn:int -> float
(** Time-average number of connection [conn]'s packets at gateway [gw] —
    the simulated Q^a_i. 0 when the connection does not cross the
    gateway. *)

val total_mean_queue : result -> gw:int -> float

val delay_mean : result -> conn:int -> float
val delay_ci95 : result -> conn:int -> float
val throughput : result -> conn:int -> float
(** Delivered packets per unit time over the measurement window. *)

val deliveries : result -> conn:int -> int
val drops : result -> conn:int -> int
(** Packets of [conn] dropped at full gateways ([buffer_limit] runs). *)

val window : result -> float
(** Length of the measurement window. *)

val events : result -> int
(** Simulation events executed (arrivals, completions, forwards,
    deliveries) — the work measure behind events/sec benchmarks.
    Independent of the shard count. *)

val components : result -> int
(** Independent gateway domains found in the topology. *)
