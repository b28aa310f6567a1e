(** Route-incidence sparsity of DF, and grouped-probe schedules.

    A connection's rate perturbs only the gateways on its route, so
    DF_ij ≠ 0 requires i and j to share a gateway.  This module derives
    that (symmetric) pattern from a {!Ffc_topology.Network.t} and colors
    it into probe groups: columns with disjoint supports are
    finite-differenced jointly (Curtis-Powell-Reid), which is
    bit-for-bit identical to probing them one at a time because no
    component of the flow map reads two bumped coordinates.

    On densely coupled topologies (a single shared gateway; chains,
    stars and dumbbells, where every pair of connections meets at some
    gateway) the schedule degenerates to one column per group — the
    dense probing order, unchanged. *)

open Ffc_topology

type t

val of_network : Network.t -> t
(** Pattern and probe schedule for DF of the flow-control map on this
    network. *)

val full : int -> t
(** The all-coupled pattern on [n] columns with one column per probe
    group — the dense probing schedule, for probing an arbitrary map
    with {!Jacobian.numeric_sparse}. *)

val size : t -> int
(** Number of connections (= rows = columns of DF). *)

val supports : t -> int array array
(** [supports p].(j) — the sorted indices structurally coupled to
    connection j, j included.  By symmetry this is both the row support
    of column j and the column support of row j (i.e. the CSR row
    pattern).  The returned arrays are the internal ones: do not
    mutate. *)

val groups : t -> int array array
(** The probe schedule: a partition of the columns such that supports
    within a group are pairwise disjoint.  Deterministic in the
    pattern. *)

val nnz : t -> int
(** Stored-entry count of the pattern. *)

val density : t -> float
(** [nnz / n²] (0 for the empty system). *)

val color_columns : ?only_rows:bool array -> t -> int array -> int array array
(** [color_columns ~only_rows p cols] — a probe schedule for a subset of
    columns where only conflicts on rows with [only_rows.(i) = true]
    matter: the incremental-update case, where entries are recomputed
    only in the affected rows.  Without [only_rows], all rows count. *)
