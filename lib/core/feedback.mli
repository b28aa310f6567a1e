(** Network-wide feedback assembly (paper §2.3.1).

    Combines the service discipline's queue lengths, the congestion
    measures, and the signal function into per-connection congestion
    signals, following bottleneck philosophy: each connection responds to
    the most congested gateway on its path, b_i = max_{a∈γ(i)} B(C^a_i). *)

open Ffc_numerics
open Ffc_queueing
open Ffc_topology

type config = private {
  style : Congestion.style;
  signal : Signal.t;
  discipline : Service.t;
  weights : Vec.t option;
      (** When set (indexed by global connection), [Individual] style uses
          the weighted congestion measure — the companion of the weighted
          Fair Share discipline (E18). [None] everywhere in the paper's
          own designs. *)
}

val make :
  ?weights:Vec.t -> style:Congestion.style -> signal:Signal.t ->
  discipline:Service.t -> unit -> config
(** Raises [Invalid_argument] when a weight is not finite and positive.
    The weight count is checked against the network where the config
    meets one, in {!Controller}. *)

val aggregate_fifo : config
(** Aggregate feedback (discipline irrelevant for signals; FIFO for
    delays), B = C/(1+C). *)

val individual_fifo : config
val individual_fair_share : config

val per_gateway_signals : config -> net:Network.t -> rates:Vec.t -> float array array
(** Element [(a, k)] is b^a of the k-th connection in
    [Network.connections_at_gateway net a]. *)

val signals : config -> net:Network.t -> rates:Vec.t -> Vec.t
(** Combined per-connection signals b_i (bottleneck max). *)

val bottlenecks : config -> net:Network.t -> rates:Vec.t -> int list array
(** For each connection, the gateways achieving its maximal signal
    (within a 1e-12 absolute tolerance). *)

val delays : config -> net:Network.t -> rates:Vec.t -> Vec.t
(** Round-trip delays d_i = Σ_{a∈γ(i)} (l_a + Q^a_i/r_i). *)

val evaluate : config -> net:Network.t -> rates:Vec.t -> Vec.t * Vec.t
(** [(signals, delays)] from a single pass over the gateways: the
    per-gateway queue state is evaluated once and feeds both outputs,
    which are identical to separate {!signals} and {!delays} calls.
    This is the entry point {!Controller.step} uses — the map
    evaluation the Jacobian probes 2N times per stability check. *)

val evaluate_rows :
  config -> net:Network.t -> rates:Vec.t -> rows:int array -> Vec.t * Vec.t
(** {!evaluate} restricted to the connections in [rows]: only the
    gateways those connections cross are evaluated, so the cost scales
    with the touched sub-network rather than the whole system.  The
    entries at indices in [rows] are bit-for-bit the ones {!evaluate}
    produces (per-gateway arithmetic depends only on that gateway's
    local rates); all other entries are 0.  This is the probe kernel of
    the incremental Jacobian update ({!Jacobian.update_flow}). *)

val queues : config -> net:Network.t -> rates:Vec.t -> gw:int -> Vec.t
(** The queue-length vector at one gateway (in Γ(a) local order). *)
