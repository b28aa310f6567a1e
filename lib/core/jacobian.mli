(** The stability matrix DF (paper §3.3).

    DF_ij = ∂F_i/∂r_j at a steady state decides linear stability: the
    steady state is stable when every eigenvalue has modulus below one.
    The paper contrasts {e unilateral} stability (|DF_ii| < 1 — what a
    single connection can measure by perturbing its own rate) with
    {e systemic} stability (the full spectrum), and proves that under
    Fair Share the matrix is triangular once connections are ordered by
    rate, making the two coincide (Theorem 4).

    There is one representation, CSR ({!Ffc_numerics.Mat.Sparse}), and
    one structure-first path.  DF_ij can be nonzero only when i and j
    share a gateway ({!Sparsity}), so the DF of the flow-control map is
    built on that route-incidence pattern: columns with disjoint
    supports are finite-differenced jointly (grouped Curtis-Powell-Reid
    probes, bit-for-bit identical to lone-column ones), and a densely
    coupled topology is simply the full pattern with one column per
    probe group.  Off-pattern entries are exactly +0.0, so nothing is
    lost by not storing them.  The spectrum reads the Theorem-4
    diagonal when the stored entries are (permuted) triangular and runs
    dense QR otherwise ({!Ffc_numerics.Eigen.eigenvalues}).

    Derivatives are numeric.  The MAX/MIN kinks the paper notes make
    one-sided derivatives differ at some steady states; both central and
    one-sided modes are provided.  Every probe direction that would
    evaluate at a negative rate (the map's domain is r ≥ 0) falls back
    to a forward difference — Central and Backward alike.

    Probe groups are independent finite differences, so they fan out
    over {!Ffc_numerics.Pool} ([jobs], default the pool default; forced
    sequential under an outer pool and for small systems).  The result
    is bit-identical at every jobs count: the shared base evaluation
    (needed only by Forward/Backward columns) is forced before the
    fan-out and each group is a pure function of its columns. *)

open Ffc_numerics

type mode = Central | Forward | Backward

val numeric_sparse :
  ?jobs:int -> ?dx:float -> ?mode:mode -> (Vec.t -> Vec.t) ->
  pattern:Sparsity.t -> at:Vec.t -> Mat.Sparse.t
(** Structure-aware Jacobian: probes the map through [pattern]'s probe
    groups (columns with disjoint supports share one probe pair) and
    stores only the pattern's entries.  Requires the map to actually
    respect the pattern — component i reading a coordinate outside its
    support would silently alias into grouped probes.  For the
    flow-control map with the pattern from
    {!Sparsity.of_network} this holds by construction; {!Sparsity.full}
    probes an arbitrary map column by column.  [dx] defaults to 1e-7
    relative to each coordinate's magnitude.  Grouped entries are
    bit-for-bit the lone-column finite differences. *)

val of_controller_sparse :
  ?jobs:int -> ?dx:float -> ?mode:mode -> Controller.t ->
  net:Ffc_topology.Network.t -> at:Vec.t -> Mat.Sparse.t
(** DF of the flow-control map at [at], probed through the network's
    route-incidence pattern.  Memoized through the ambient result cache
    ({!Ffc_cache.Cache}, tier ["jac.sparse"]) when one is installed;
    [jobs] is excluded from the cache key because groups are
    bit-identical at every jobs count.  When tracing, the ["jac.sparse"]
    span ends with the attributes [n], [nnz] and [groups] (probe
    groups) of the pattern. *)

val update_flow :
  ?jobs:int -> ?dx:float -> ?mode:mode -> Controller.t ->
  net:Ffc_topology.Network.t -> prev:Mat.Sparse.t -> prev_at:Vec.t ->
  at:Vec.t -> Mat.Sparse.t
(** Incremental DF rebuild after flow churn: given [prev] =
    {!of_controller_sparse} at [prev_at] (same [dx]/[mode]), patches
    only the entries whose row is structurally coupled to a changed
    coordinate, probing the touched sub-network alone
    ({!Controller.map_rows}) through a churn-restricted coloring.  The
    result is bit-for-bit {!of_controller_sparse} at [at] — provably
    independent of [prev] — and is memoized on the destination point
    (tier ["jac.update"]).  Cost scales with the churn-affected region:
    on a topology of independent lots, a single join/leave re-probes
    one lot.  Raises [Invalid_argument] when [prev] does not store
    exactly the network's pattern (checked before the cache lookup). *)

val eigenvalues_sparse : ?struct_tol:float -> Mat.Sparse.t -> Complex.t array
(** {!Ffc_numerics.Eigen.eigenvalues}, memoized on the matrix content
    through the ambient result cache (tier ["eigen.spectrum.sparse"]).
    Composes with the cached DF: a warm run rebuilds neither the probes
    nor the QR iteration. *)

val spectral_radius_sparse : ?struct_tol:float -> Mat.Sparse.t -> float
(** Largest eigenvalue modulus over the cached spectrum
    ({!eigenvalues_sparse}). *)

val spectral_radius_incremental : ?struct_tol:float -> Mat.Sparse.t -> float
(** Cheap ρ(DF) after {!update_flow}: the structural diagonal when the
    CSR matrix is (permuted) triangular, else a power-iteration
    estimate cross-checked by a deflated second iteration; falls back
    to the full cached spectrum when either check fails, so the value
    is never silently wrong. *)

val unilaterally_stable : ?tol:float -> Mat.Sparse.t -> bool
(** |DF_ii| < 1 − [tol] for every i (default [tol] 1e-9). *)

val systemically_stable :
  ?tol:float -> ?ignore_unit:int -> ?struct_tol:float -> Mat.Sparse.t -> bool
(** Spectral radius below 1, optionally discounting [ignore_unit]
    eigenvalues of modulus ~1 for steady-state manifolds (aggregate
    feedback has an (N−1)-dimensional manifold at a single gateway).
    Reads the same cached spectrum as {!spectral_radius_sparse}. *)

val triangular_in_rate_order : ?tol:float -> Mat.Sparse.t -> rates:Vec.t -> bool
(** Whether DF is lower triangular after simultaneously permuting rows and
    columns into increasing-rate order — Theorem 4's structure under Fair
    Share. [tol] defaults to 1e-6 (numeric differentiation noise).  Ties
    in [rates] keep [Array.sort]'s order. *)

val diagonal : Mat.Sparse.t -> Vec.t
(** The unilateral responses DF_ii. *)
