(** The Fair Share (FS) service discipline (paper §2.2, [She89]).

    FS is a preemptive priority discipline built from a rate
    decomposition: with connections labelled so that r_1 ≤ … ≤ r_N, each
    connection contributes rate r_1 to the highest priority level, each
    connection except the first contributes r_2 − r_1 to the next level,
    and so on (the paper's Table 1).  A connection's queue therefore only
    depends on the rates of connections no faster than itself — the
    triangularity that drives Theorem 4 — and stays finite as long as its
    own "fair" cumulative load T_i = Σ_k min(r_k, r_i) is below μ, even
    when the gateway as a whole is overloaded.  That isolation is what
    satisfies the Theorem 5 robustness criterion.

    With T_i = Σ_k min(r_k, r_i) and g(x) = x/(1−x), the mean queues obey
    the recursion (connections sorted by increasing rate)

      Q_i = ( g(T_i/μ) − Σ_{m<i} Q_m ) / (N − i + 1)

    equivalently Q_i = Σ_{j≤i} (g(T_j/μ) − g(T_{j−1}/μ))/(N−j+1). *)

open Ffc_numerics

val fair_cumulative_load : Vec.t -> int -> float
(** [fair_cumulative_load rates i] = T_i = Σ_k min(r_k, r_i), the traffic
    that connection [i] "sees" under FS (its own plus every other
    connection capped at its rate). *)

val queue_lengths : mu:float -> Vec.t -> Vec.t
(** Mean per-connection numbers in system, in the input order (connections
    need not be pre-sorted).  Connection [i]'s queue is [infinity] iff
    T_i ≥ μ and its rate is positive.  Rates must be non-negative and
    finite, [mu] positive. *)

val total_queue : mu:float -> Vec.t -> float
(** Σ Q_i = g(ρ_tot) — by work conservation identical to FIFO's total. *)

val decomposition : Vec.t -> float array array
(** [decomposition rates] is the Table 1 matrix: entry [(i, j)] is the rate
    connection [i] sends at priority level [j] (level 0 is the highest).
    Rows are in the input order, columns in increasing-rate order of the
    distinct priority levels; each row sums to the connection's rate.
    Entries for levels above a connection's rate are 0. *)

val level_rates : Vec.t -> float array
(** The distinct per-level rate increments r_(1), r_(2)−r_(1), … of the
    sorted rate vector (zero increments from tied rates are kept so that
    level indices align with sorted connection indices). *)

val zero_rate_sojourn : mu:float -> Vec.t -> float option
(** The Little's-law sojourn Q/r of a zero-rate connection in the limit
    of a vanishing rate, in closed form.  [rates] must hold at least one
    zero and pass {!queue_lengths}'s checks.  The limit is the probe
    {!Service.sojourn_times} uses for every discipline — the first zero
    slot raised to the probe rate 1e-9·μ, the queue vector solved again
    and the slot's queue divided by the probe — and when every positive
    rate exceeds the probe the sort puts the probe directly after the
    zeros, so with k positive rates its level has

      T = (k+1)·probe,  Q = g(T/μ)/(k+1)  (clamped at 0),

    and the result is [Some (Q /. probe)], or [Some infinity] when
    T ≥ μ, bit for bit the probe's value without a second sort.  When
    some positive rate is at or below the probe, where it sorts and
    how ties with the probe fall depend on the sort, so the result is
    [None] and {!Service} solves the probed vector instead. *)
