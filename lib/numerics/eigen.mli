(** Eigenvalues of real CSR matrices, structure first.

    The stability analysis of the flow-control map (paper §3.3) requires
    all eigenvalues of the Jacobian DF — which is real but generally
    non-symmetric, so eigenvalues may form complex-conjugate pairs.
    Every spectrum comes from one path, {!eigenvalues}, over the one
    Jacobian representation ({!Mat.Sparse}; a dense matrix is the full
    pattern):

    - {b structure first}: under Fair Share the Jacobian is triangular
      once connections are ordered by rate (Theorem 4), so its
      eigenvalues are its diagonal.  {!triangular_order} looks for
      triangular or permuted-triangular structure by walking the stored
      entries, and {!eigenvalues} reads the diagonal when it finds it;
      [struct_tol] controls how small an entry must be to count as
      structurally zero (default exactly 0 — finite differencing of a
      Fair Share map produces exact zeros above the diagonal, so the
      default is both safe and effective).
    - {b dense QR otherwise}: balancing, reduction to upper Hessenberg
      form by stabilized elementary transformations, then the implicit
      double-shift (Francis) QR iteration with deflation — O(N³) on
      [Mat.Sparse.to_dense] of the input.  The kernel is exposed
      ({!eigenvalues_dense}, {!hessenberg}) as the oracle the structural
      path is checked against.

    {!spectral_radius} and {!is_linearly_stable} are folds over a
    spectrum, so a caller holding one (e.g. a cached one) never solves
    it twice.  All routines operate on copies and never mutate their
    input. *)

val hessenberg : Mat.t -> Mat.t
(** [hessenberg m] is an upper-Hessenberg matrix similar to square [m]
    (entries below the first subdiagonal are exactly zero). *)

val eigenvalues_dense : Mat.t -> Complex.t array
(** The QR kernel unconditionally — the fallback of {!eigenvalues} and
    the oracle for cross-checking its structural path.  Raises
    [Failure] if the QR iteration fails to converge (does not happen for
    the matrices in this repository) and [Invalid_argument] if the
    matrix is not square. *)

val triangular_order : ?tol:float -> Mat.Sparse.t -> int array option
(** [triangular_order s] is [Some v] when [s] is lower triangular after
    simultaneously permuting rows and columns by [v] — i.e. every
    stored entry [(v_i, v_j)] with [j > i] has [|value| <= tol] (default
    [tol = 0.], exact zeros).  Covers plain lower triangular (identity
    order), upper triangular (reversal) and any simultaneous permutation
    of either, such as Fair Share stability matrices in rate order
    (Theorem 4).  O(nnz) graph work plus an O(N) scan per pick. *)

val structural_eigenvalues : ?tol:float -> Mat.Sparse.t -> Vec.t option
(** The diagonal, when {!triangular_order} detects (permuted) triangular
    structure — the eigenvalues, exactly, since a simultaneous
    permutation is a similarity.  [None] otherwise (and for non-square
    matrices). *)

val eigenvalues : ?struct_tol:float -> Mat.Sparse.t -> Complex.t array
(** All eigenvalues of a square matrix, in no particular order: the
    diagonal when (permuted-)triangular structure is detected at
    [struct_tol], {!eigenvalues_dense} on [Mat.Sparse.to_dense]
    otherwise.  Raises like {!eigenvalues_dense}. *)

val sort_by_modulus : Complex.t array -> Complex.t array
(** A copy sorted by decreasing modulus (ties broken by real part). *)

val spectral_radius : Complex.t array -> float
(** Largest modulus of a spectrum — the quantity that decides linear
    stability of the iteration r' = F(r). *)

val is_linearly_stable : ?tol:float -> ?ignore_unit:int -> Complex.t array -> bool
(** [is_linearly_stable ev] holds when every eigenvalue in [ev] has
    modulus < 1 − [tol] (default [tol = 1e-9]).  [ignore_unit] (default 0)
    discounts that many eigenvalues of largest modulus — used for
    steady-state manifolds, where deviations *along* the manifold carry
    unit eigenvalues that the paper's stability notion ignores. *)

val power_iteration :
  ?max_iter:int -> ?tol:float -> ?deflate:Vec.t -> Mat.Sparse.t ->
  (float * Vec.t) option
(** Dominant eigenvalue (by modulus, assuming it is real) and its
    eigenvector, via normalized power iteration with O(nnz) CSR mat-vec
    steps; [None] when the iteration does not settle — e.g. a complex
    dominant pair.  With [deflate] (a previously found dominant
    eigenvector), every iterate is projected onto its orthogonal
    complement, estimating the dominant eigenvalue of the remaining
    spectrum — the deflation pass that certifies a claimed dominant pair
    actually dominates.  The independent cross-check used after
    incremental Jacobian updates. *)
