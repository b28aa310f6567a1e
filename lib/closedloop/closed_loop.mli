(** Closed-loop flow control over the packet simulator.

    The paper's model computes congestion signals from the {e analytic}
    queue functions and assumes instant equilibration.  This subsystem
    closes the loop the way a real network would: Poisson sources send
    into simulated gateways; every [interval] time units each connection
    reads the congestion signal computed from the {e measured}
    time-average queue lengths of the last window (combined across its
    path, bottleneck-max, exactly as §2.3.1 prescribes) and adjusts its
    rate with its own f(r, b, d), where d is its measured mean end-to-end
    delay.  Fair Share thinning probabilities are recomputed from the
    current rate vector at every update, as an implementation of FS would
    have to.

    This removes the two central idealizations at once (instant
    equilibration and noiseless signals) and lets the paper's
    steady-state predictions be checked against a live system.

    Both runners simulate on {!Ffc_desim.Fabric}, the network assembly
    {!Ffc_desim.Netsim} uses too, with Netsim's Fair Share thinning. *)

open Ffc_numerics
open Ffc_topology
open Ffc_core

type discipline = Ffc_desim.Netsim.discipline = Fifo | Fs_priority | Fair_queueing
(** Netsim's packet disciplines, re-exported. *)

type result = {
  times : float array;  (** Update instants. *)
  rates : float array array;  (** [rates.(k)] — rate vector set at update k. *)
  signals : float array array;  (** Combined signals that drove update k. *)
  final_rates : float array;  (** Rates after the last update. *)
  mean_tail_rates : float array;
      (** Per-connection mean of the rates over the last quarter of the
          updates — the "steady" operating point with noise averaged
          out. *)
}

val run :
  net:Network.t ->
  discipline:discipline ->
  style:Congestion.style ->
  signal:Signal.t ->
  adjusters:Rate_adjust.t array ->
  r0:Vec.t ->
  interval:float ->
  updates:int ->
  seed:int ->
  unit ->
  result
(** Runs [updates] control intervals of length [interval].  [r0] gives the
    initial sending rates.  Raises [Invalid_argument] on dimension
    mismatches or non-positive [interval]/[updates]. *)

type drop_result = {
  dr_times : float array;
  dr_rates : float array array;
  dr_mean_tail_rates : float array;
  drop_fraction : float array;
      (** Per-connection drops/emitted over the whole run. *)
  mean_utilization : float;
      (** Delivered total throughput over Σμ across the tail window. *)
}

val run_drop_tail :
  net:Network.t ->
  buffer:int ->
  adjusters:Rate_adjust.t array ->
  r0:Vec.t ->
  interval:float ->
  updates:int ->
  seed:int ->
  unit ->
  drop_result
(** Implicit-feedback flow control in the style of Jacobson's algorithm
    (paper §1): gateways are drop-tail FIFOs with [buffer] slots; no
    explicit signal exists.  Each interval, a connection's congestion
    signal is the {e binary drop indicator} — 1 if any of its packets
    were dropped in the window, else 0 — so pairing this with
    {!Rate_adjust.aimd} reproduces the classic TCP-style control loop.
    Like aggregate feedback, drops signal the aggregate congestion, so
    the paper's fairness/robustness limits for aggregate feedback apply. *)
