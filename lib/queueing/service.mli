(** Service-discipline abstraction.

    A discipline is, for the purposes of the paper's model, exactly its
    symmetric queue-length function Q(r) (paper §2.2).  This module
    packages the built-in disciplines (FIFO, Fair Share) behind one type
    so that the flow-control layer, the feasibility checker and the
    experiments can be written discipline-generically, and lets tests
    define custom disciplines. *)

open Ffc_numerics

type t

val fifo : t
val fair_share : t

val processor_sharing : t
(** Egalitarian processor sharing.  For M/M/1 with exponential service the
    per-connection mean occupancy is the same as FIFO's
    (ρ_i/(1−ρ_tot)) — a known insensitivity result — so within this
    model PS and FIFO are {e indistinguishable}: every theorem that holds
    for FIFO holds verbatim for PS.  Exposed to make that observation
    testable; only the name differs from {!fifo}. *)

val make : name:string -> (mu:float -> Vec.t -> Vec.t) -> t
(** A custom discipline from its queue-length function. The function must
    be symmetric in the connection order to model a gateway with no a
    priori knowledge of connections; [Feasibility.symmetric_ok] can verify
    this numerically. *)

val name : t -> string

val queue_lengths : t -> mu:float -> Vec.t -> Vec.t
(** Mean per-connection numbers in system for sending-rate vector [r]. *)

val total_queue : t -> mu:float -> Vec.t -> float
(** Σ_i Q_i — for work-conserving disciplines this equals g(ρ_tot)
    regardless of the discipline (the conservation the paper notes makes
    aggregate signals discipline-insensitive). *)

val sojourn_times : t -> mu:float -> Vec.t -> Vec.t
(** Per-connection mean time in system by Little's law Q_i/r_i, with the
    infinitesimal-probe limit at zero rate: the first zero-rate slot is
    raised to 1e-9·μ, the queue vector is solved again, and that slot's
    queue divided by the probe serves every zero-rate connection (the
    discipline's symmetry makes the limit slot-independent).  Each
    discipline has one implementation of that limit.  {!fair_share}
    uses {!Fair_share.zero_rate_sojourn}'s closed form, the probe's
    value bit for bit without the second solve, whenever every positive
    rate exceeds the probe; when some positive rate is at or below it,
    and for {!fifo}, {!processor_sharing} and every discipline built
    with {!make}, the probe is solved. *)

val evaluate : t -> mu:float -> Vec.t -> Vec.t * Vec.t
(** [(queue_lengths, sojourn_times)] from a single queue-length
    evaluation — the discipline's Q(r) is the expensive part, and both
    outputs derive from it, so fusing them halves the cost of a
    combined signals+delays pass (plus the zero-rate probe, where
    {!sojourn_times} still solves one). *)

val builtin : t list
(** The two disciplines studied in the paper, FIFO first. *)
