(** The online admission-control engine (ROADMAP item 2).

    A long-running gateway service over a fixed universe of connection
    slots: [add] activates an idle slot (a flow arrives), [remove]
    deactivates it (the flow's document finished).  Each [add] runs an
    {e admission test} in the spirit of Musacchio–Walrand ingress
    discarding — the flow enters only when the network can absorb it:

    - the candidate fair steady state gives the newcomer at least
      [min_rate] (its minimum useful throughput);
    - the Theorem-5 min-ratio check passes: every active flow keeps at
      least [1 − epsilon] of its reservation baseline
      ({!Ffc_core.Robustness.baselines_masked} against the candidate
      population);
    - the candidate steady state is systemically stable: ρ(DF) < 1.

    Rejected flows are discarded at ingress — engine state is
    untouched.

    {b The degradation ladder.}  Work is accounted on a logical clock:
    each request carries an arrival time [t] (stamped by the churn
    driver) and each served tier has a logical cost; the {e backlog}
    [vclock − t] measures overload.  As it grows the engine degrades,
    tier by tier, and every response records the tier that served it:

    - {b full}: from-scratch steady state + sparse DF + exact spectral
      radius (idle default — the most accurate answer);
    - {b incremental}: O(churn) patches —
      {!Ffc_core.Steady_state.update_fair} /
      {!Ffc_core.Jacobian.update_flow} /
      [spectral_radius_incremental] — bit-identical to full by the PR-6
      contract, at a fraction of the cost;
    - {b cached}: exact incremental rates, but ρ(DF) is the cached
      previous estimate ([rho_fresh = false] in responses) — no Jacobian
      work at all;
    - {b shed}: beyond the last threshold an [add] is rejected at
      ingress without touching the solvers (removals are never shed —
      departures must always be processed).

    When the backlog drains the ladder steps back up; transitions are
    counted and traced ([svc.degrade]/[svc.recover]).

    {b Robustness envelope.}  Every solve is wrapped in a bounded retry
    loop with deterministic jittered exponential backoff — the jitter
    derives from [(seed, seq)], so two runs of the same request stream
    back off identically.  A tier whose solve keeps failing degrades to
    the next tier; a request that exhausts the whole ladder is rejected
    (add) or answered from patched rates alone (remove).  The optional
    per-solve [timeout] is {e observational}: a solve that finishes
    after the deadline keeps its result (the work is done — discarding
    it would re-pay the whole solve) and the overrun is counted only in
    the ambient metrics registry ([service.timeouts]), which sits
    outside the determinism contract like the latency histograms.

    {b Batched admission.}  {!handle_batch} admits a whole bracket of
    adds as one rank-k solve: member rates come from a chain of
    {!Ffc_core.Steady_state.update_fair} patches (bit-identical to the
    serial rates by the incremental-kernel contract) and the expensive
    stability evidence — DF and ρ(DF) — is computed once, on the
    batch-final accepted mask.  Per-member verdicts bit-match serial
    execution whenever ρ stays on one side of 1 across the batch (the
    regular case); if the single check lands at ρ ≥ 1 the candidates
    are replayed serially against committed state, reproducing the
    greedy serial verdicts including which member crosses the line.

    {b One member step.}  Serial adds, batch members and replayed
    members share one path: slot lookup against an occupancy mask (the
    committed population, or the bracket's tentative one) and the
    ingress shed; a solve under the retry envelope; one verdict
    ([min_rate], then [min_ratio], then [rho] — ρ is left to the batch
    check in pass 1); and one settle step that counts, traces and
    renders the reply.  The replay runs the serial core itself.  Serial
    and batch replies therefore differ only where the bracket's own
    accounting shows: member replies carry ["batch"], report the
    tentative population as [active], and pass 1 charges each solved
    member the cached-tier cost (admitted members carry the batch's
    tier), which moves [tier], [backlog] and [vclock]; the summary
    consumes a seq of its own.

    Determinism contract: every response line is a pure function of the
    request stream and the configuration — byte-identical at any
    [--jobs], across restarts from a snapshot, and across cache
    cold/warm runs; [timeout] no longer weakens this. *)

open Ffc_topology
open Ffc_core
open Ffc_faults

type tier = Full | Incremental | Cached

val tier_label : tier -> string
(** ["full"], ["incremental"], ["cached"]. *)

type config = {
  signal : Signal.t;
  b_ss : float;  (** Steady signal pinning the fair steady state. *)
  epsilon : float;  (** Theorem-5 slack: admit only if min-ratio ≥ 1−ε. *)
  min_rate : float;  (** Ingress discard: newcomer needs at least this. *)
  backlog_incremental : float;  (** Backlog at which full → incremental. *)
  backlog_cached : float;  (** Backlog at which incremental → cached. *)
  backlog_shed : float;  (** Backlog beyond which adds are shed. *)
  cost_full : float;  (** Logical service cost per tier... *)
  cost_incremental : float;
  cost_cached : float;
  cost_shed : float;  (** ...including the cost of saying no. *)
  cost_query : float;
  timeout : float;  (** Per-solve wall-clock deadline, seconds; 0 = off.
                        Observational only: overruns are counted in the
                        metrics registry, never reflected in replies. *)
  retries : int;  (** Backoff retries per solve. *)
  backoff_base : float;  (** Base backoff delay, seconds. *)
  sleep_backoff : bool;  (** Really sleep between retries (daemon mode);
                             off in tests so retried runs stay fast. *)
  seed : int;  (** Backoff-jitter seed. *)
  plan : Fault.plan;  (** Fault plan for [query]'s supervised verdict. *)
  sup_retries : int;  (** Supervisor damping retries for [query]. *)
  escape : float;  (** Supervisor divergence threshold for [query]. *)
}

val default_config : config
(** linear-fractional signal, b_SS 0.5, ε 1e-6, min_rate 0, ladder at
    backlog 0.5 / 2 / 8 logical seconds with costs 0.05 / 0.01 / 0.002 /
    5e-4 (query 0.05), timeout off, 2 retries at base 0.05 s without
    sleeping, seed 0, empty fault plan. *)

type t

val create :
  ?config:config ->
  ?failure_hook:(seq:int -> attempt:int -> bool) ->
  ?slow_hook:(seq:int -> attempt:int -> float) ->
  Controller.t ->
  net:Network.t ->
  t
(** A fresh engine over [net]'s slots, all idle.  [failure_hook] is a
    test seam: returning [true] makes that solve attempt fail as a
    transient solver error (exercises timeout/backoff/degrade paths).
    [slow_hook] is the timeout test seam: the returned duration (in
    seconds, > 0) is slept before that solve attempt runs, so a test
    can make a solve overrun [config.timeout] without faking clocks. *)

type reply = { line : string; mutated : bool }
(** One response line (no trailing newline) and whether the request
    committed a join/leave (drives the server's snapshot cadence). *)

val handle : ?sid:int -> t -> Protocol.request -> reply
(** Serve [Add]/[Remove]/[Query]/[Stats].  [Metrics]/[Snapshot]/
    [Shutdown] are the server's business, and [Batch_begin]/[Batch_end]
    are session-level bracket state (use {!handle_batch}); all raise
    [Invalid_argument] here.  [sid] tags the request's span with the
    serving session (attribute only — replies never carry it).

    Read-only verbs are {e never} refused: past the shed threshold a
    [query] is answered from the last committed state (tier ["shed"],
    verdict withheld, [stale=true]) at shed cost, a [query] in the
    cached band skips the verdict machinery and is likewise tagged
    [stale=true], and [stats] is free — no vclock charge — reporting
    tier ["shed"] with [stale=true] when overloaded.

    When an ambient {!Ffc_obs.Ctx} is installed, every request runs
    under a ["svc.request"] span (op at start; served tier and decision
    as end attributes) and its wall-clock latency is observed in the
    per-tier [service.latency.<tier>] histogram (zeroed under
    [--trace-deterministic], like the span timing channel). *)

val handle_batch : ?sid:int -> t -> Protocol.add list -> reply list
(** Admit a bracket of adds as one rank-k solve (see the module
    preamble).  Returns exactly [length adds + 1] replies: one per
    member, in request order, each carrying a ["batch"] field with the
    bracket size, then a trailing batch summary
    ([op = "batch"], member tallies, the batch tier and ρ).  Member
    tiers never leave the full/incremental/cached/shed vocabulary:
    admitted members report the batch's entry tier ("cached" when the
    stability evidence is stale), per-member rejections report
    ["cached"] (they only received patch work).  When an ambient
    {!Ffc_obs.Ctx} is installed the whole bracket runs under a single
    ["svc.batch"] span — the observable witness that a batch of K adds
    performs exactly one ρ(DF) check. *)

val error_line : seq:int -> string -> string
(** The reply to a request that could not be served:
    [{"ok":false,"seq":SEQ,"error":MSG}]. *)

val next_seq : t -> int
(** Claim the next request sequence number (used by the server for the
    snapshot/shutdown replies it composes itself). *)

(** {2 Introspection} *)

val net : t -> Network.t
val active : t -> bool array
val active_count : t -> int
val rates : t -> float array
val rho : t -> float
val seq : t -> int
val mutations : t -> int
val vclock : t -> float
val config_digest : t -> string
(** Hex fingerprint of everything that must match for a snapshot to be
    restorable: topology, adjusters, signal, thresholds, costs, seeds,
    fault plan. *)

(** {2 Snapshot integration} *)

val state : t -> Snapshot.state
(** The engine's resumable state (digest included). *)

val restore : t -> Snapshot.state -> (unit, string) result
(** Adopt a snapshot taken by an identically-configured engine; refuses
    (with a message) on digest or size mismatch.  The Jacobian cache is
    rebuilt lazily — bit-identically — on first incremental use. *)
