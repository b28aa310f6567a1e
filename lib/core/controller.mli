(** The synchronous flow-control iteration r' = F(r) (paper §2.3.2).

    At every discrete step each connection reads its combined congestion
    signal b_i and round-trip delay d_i, then updates
    r_i ← max(0, r_i + f_i(r_i, b_i, d_i)).  Connections may run
    different rate-adjustment algorithms f_i (the heterogeneity of §3.4).
    The iteration's asymptotics are classified into convergence to a
    steady state, an attracting cycle, divergence, or neither. *)

open Ffc_numerics
open Ffc_topology

type t

val create : config:Feedback.config -> adjusters:Rate_adjust.t array -> t
(** One adjuster per connection, and one weight per connection when the
    config carries feedback weights (both checked against the network
    at use: {!step}, {!map_rows} and {!step_subset} raise
    [Invalid_argument] on a count mismatch). *)

val homogeneous : config:Feedback.config -> adjuster:Rate_adjust.t -> n:int -> t
(** All [n] connections share one algorithm. *)

val config : t -> Feedback.config
val adjusters : t -> Rate_adjust.t array

val step : t -> net:Network.t -> Vec.t -> Vec.t
(** One synchronous update of all rates. *)

val apply_feedback : t -> b:Vec.t -> d:Vec.t -> Vec.t -> Vec.t
(** The adjuster half of {!step}: r_i ← max(0, r_i + f_i(r_i, b_i, d_i))
    from already-computed feedback vectors.  {!step} is
    [Feedback.evaluate] followed by this; exposing the halves lets a
    wrapper (the fault-injection layer) perturb the feedback path between
    them without the unfaulted path paying anything. *)

val map : t -> net:Network.t -> Vec.t -> Vec.t
(** Alias of {!step} — the iteration map F, for Jacobian probing. *)

val map_rows : t -> net:Network.t -> rows:int array -> Vec.t -> Vec.t
(** [map_rows t ~net ~rows r] computes only the components F_i with
    [i] in [rows] (other entries are 0), evaluating only the gateways
    those connections cross — see {!Feedback.evaluate_rows}.  Entries
    at [rows] are bit-for-bit those of {!map}.  Used by the incremental
    Jacobian kernel to probe a churn-affected sub-network at sub-linear
    cost. *)

val step_subset : t -> net:Network.t -> mask:bool array -> Vec.t -> Vec.t
(** Like {!step}, but only connections with [mask.(i) = true] update
    their rate; the rest hold theirs.  Models asynchronous update
    schedules (paper §2.5; cf. Mosely's asynchronous algorithms): with
    individual feedback the fair steady state remains the unique
    attractor under any schedule that updates everyone infinitely
    often. *)

val trajectory : t -> net:Network.t -> r0:Vec.t -> steps:int -> Vec.t array
(** [steps + 1] states including [r0]. *)

type outcome =
  | Converged of { steady : Vec.t; steps : int }
  | Cycle of { period : int; orbit : Vec.t array }
      (** An attracting cycle; [orbit] lists one full period. *)
  | Diverged of { at_step : int }
      (** A rate exceeded the escape threshold or became non-finite. *)
  | No_convergence of { last : Vec.t }

val outcome_label : outcome -> string
(** ["converged"], ["cycle"], ["diverged"] or ["no_convergence"] — the
    stable identifiers used in trace events and metric names. *)

val run_map :
  ?tol:float -> ?max_steps:int -> ?min_steps:int -> ?max_period:int -> ?escape:float ->
  map:(int -> Vec.t -> Vec.t) -> r0:Vec.t -> unit -> outcome
(** The watchdog loop of {!run}, generalized over the iteration map:
    [map k r] is the state after step [k] (0-based) from state [r].
    This is the core hook the fault injector and the supervised runner
    drive — the map may depend on the step index (gateway degradation
    windows, stale-signal history).

    [min_steps] (default 0) suppresses the [Converged] and [Cycle]
    verdicts before that many steps — a time-varying map can sit at a
    temporary fixed point (a network converged under a transient
    gateway cut that has yet to be restored), and only the caller knows
    the horizon after which the map is time-invariant.  Divergence is
    still detected from step 0.

    Hardening, shared with {!run}: a state with any non-finite component
    (NaN included — NaN compares false against every threshold, so it
    needs its own check) or component beyond [escape] yields [Diverged];
    this includes [r0] itself, reported as [Diverged] at step 0.  A map
    evaluation that raises [Failure] (e.g. {!Rate_adjust.eval} on a
    NaN-producing adjuster) is likewise [Diverged] at that step, so one
    pathological parameter cell degrades gracefully instead of killing a
    whole sweep. *)

val run :
  ?tol:float -> ?max_steps:int -> ?max_period:int -> ?escape:float ->
  t -> net:Network.t -> r0:Vec.t -> outcome
(** Iterates from [r0] (default [tol] 1e-10, [max_steps] 20000,
    [max_period] 32, [escape] 1e12).  Convergence requires the relative
    sup-norm step to stay below [tol] for several consecutive steps; cycle
    detection compares the tail of the orbit at all lags up to
    [max_period].  Divergence hardening as in {!run_map}. *)

val run_async :
  ?tol:float -> ?max_steps:int -> ?p:float -> ?escape:float -> rng:Rng.t -> t ->
  net:Network.t -> r0:Vec.t -> outcome
(** Iterates {!step_subset} with a fresh Bernoulli([p]) mask each step
    ([p] defaults to 0.5).  The divergence threshold [escape] defaults
    to 1e12, as in {!run}.  Convergence detection as in {!run}; cycle
    detection is skipped because the randomized schedule has no
    deterministic period, so non-convergent runs end as
    [No_convergence]. *)

val steady_state : ?tol:float -> t -> net:Network.t -> Vec.t -> bool
(** Whether [r] is (numerically) a fixed point of the map. *)
