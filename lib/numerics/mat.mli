(** Dense square-friendly float matrices (row-major), plus a CSR sparse
    companion ({!Sparse}).

    Provides the small-matrix linear algebra needed by the stability
    analysis: products, LU factorization with partial pivoting, linear
    solves, determinants, inverses, and the simultaneous row/column
    permutation used to check Theorem 4's triangular stability matrix.

    {b Zero-dimension contract.}  Every constructor in this module —
    [create], [init], [of_arrays], [of_flat], and the {!Sparse}
    constructors — accepts zero rows and/or columns and produces the
    corresponding empty matrix ([of_arrays [||]] is the 0x0 matrix).
    Only {e negative} dimensions and shape mismatches (ragged rows, flat
    length <> rows*cols) raise [Invalid_argument].  All operations are
    total on empty matrices: products, transposes and norms return
    empty/zero results rather than raising. *)

type t
(** A dense [rows x cols] matrix. *)

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t

val identity : int -> t

val of_arrays : float array array -> t
(** Rows must be of equal (possibly zero) length; [[||]] is the 0x0
    matrix (see the zero-dimension contract above). The array is
    copied. Raises [Invalid_argument] on ragged rows. *)

val to_arrays : t -> float array array

val to_flat : t -> float array
(** A fresh row-major copy of the entries — the layout the eigensolver's
    in-place kernels work on. Length [rows * cols]. *)

val of_flat : rows:int -> cols:int -> float array -> t
(** Inverse of {!to_flat}; the array is copied. Raises
    [Invalid_argument] when the length is not [rows * cols]. *)

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val unsafe_get : t -> int -> int -> float
(** [get] without bounds checks — for inner loops that have already
    validated their index ranges. Out-of-range indices are undefined
    behaviour. *)

val unsafe_set : t -> int -> int -> float -> unit

val copy : t -> t

val transpose : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val mul : t -> t -> t
(** Matrix product. Raises [Invalid_argument] on inner-dimension
    mismatch. *)

val mul_vec : t -> Vec.t -> Vec.t

val trace : t -> float

val frobenius_norm : t -> float

val approx_equal : ?tol:float -> t -> t -> bool

val permute_rows_cols : t -> int array -> t
(** [permute_rows_cols m p] is the matrix with entry [(i, j)] equal to
    [m(p.(i), p.(j))] — simultaneous row/column permutation, used to test
    triangularity after sorting connections by rate. *)

val lu : t -> (t * int array * int) option
(** [lu m] is [Some (lu, perm, sign)] — the packed LU factorization with
    partial pivoting of a square matrix — or [None] when [m] is singular to
    working precision. *)

val solve : t -> Vec.t -> Vec.t option
(** [solve a b] solves [a x = b] for square [a]; [None] when singular. *)

val det : t -> float

val inverse : t -> t option

val diagonal : t -> Vec.t

val pp : Format.formatter -> t -> unit

(** Compressed-sparse-row matrices over the same conventions as the
    dense type.  Entries outside the stored pattern are exactly +0.0,
    so [to_dense] of a sparse finite-difference Jacobian is bit-for-bit
    the matrix the dense probing path builds.  Follows the module's
    zero-dimension contract. *)
module Sparse : sig
  type dense = t

  type t
  (** A [rows x cols] CSR matrix. *)

  val create :
    rows:int -> cols:int -> row_ptr:int array -> col_idx:int array ->
    values:float array -> t
  (** Validated CSR assembly: [row_ptr] has length [rows + 1], starts at
      0, is non-decreasing and ends at the entry count; column indices
      are in range and strictly increasing within each row.  All arrays
      are copied. *)

  val rows : t -> int
  val cols : t -> int

  val nnz : t -> int
  (** Stored-entry count (structural nonzeros; stored values may be 0). *)

  val copy : t -> t

  val to_csr : t -> int array * int array * float array
  (** [(row_ptr, col_idx, values)] — fresh copies, the inverse of
      {!create}. *)

  val get : t -> int -> int -> float
  (** Entries outside the pattern read as 0. *)

  val set_existing : t -> int -> int -> float -> unit
  (** In-place write to a stored entry; raises [Invalid_argument] for an
      entry outside the pattern (the pattern itself is immutable). *)

  val has_pattern : t -> int array array -> bool
  (** [has_pattern s cols] — whether row [i] of [s] stores exactly the
      columns [cols.(i)], for every row.  O(nnz), no copy. *)

  val iter_row : t -> int -> (int -> float -> unit) -> unit
  (** [iter_row s i f] calls [f j v] for each stored entry [(i, j)] in
      increasing column order. *)

  val to_dense : t -> dense

  val of_dense : dense -> t
  (** Keeps exactly the structural nonzeros. *)

  val mul_vec : t -> Vec.t -> Vec.t

  val diagonal : t -> Vec.t

  val equal : t -> t -> bool
  (** Same shape, same stored pattern, and bit-identical stored values
      (NaN-safe: compares float bits, not [=]). *)
end
