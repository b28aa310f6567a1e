type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0. }

let rows m = m.rows
let cols m = m.cols

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Mat.get: index out of bounds";
  m.data.((i * m.cols) + j)

let set m i j x =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Mat.set: index out of bounds";
  m.data.((i * m.cols) + j) <- x

let unsafe_get m i j = Array.unsafe_get m.data ((i * m.cols) + j)
let unsafe_set m i j x = Array.unsafe_set m.data ((i * m.cols) + j) x

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1. else 0.)

(* Zero-dimension contract (see mat.mli): every constructor accepts
   empty shapes, so [of_arrays [||]] is the 0x0 matrix rather than an
   error — the same contract [create] and [of_flat] already followed. *)
let of_arrays a =
  let r = Array.length a in
  let c = if r = 0 then 0 else Array.length a.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> c then invalid_arg "Mat.of_arrays: ragged rows")
    a;
  init r c (fun i j -> a.(i).(j))

let to_arrays m = Array.init m.rows (fun i -> Array.init m.cols (fun j -> get m i j))

let to_flat m = Array.copy m.data

let of_flat ~rows ~cols data =
  if rows < 0 || cols < 0 then invalid_arg "Mat.of_flat: negative dimension";
  if Array.length data <> rows * cols then
    invalid_arg "Mat.of_flat: data length does not match dimensions";
  { rows; cols; data = Array.copy data }

let copy m = { m with data = Array.copy m.data }

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let lift2 name f a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg ("Mat." ^ name ^ ": dimension mismatch");
  init a.rows a.cols (fun i j -> f (get a i j) (get b i j))

let add a b = lift2 "add" ( +. ) a b
let sub a b = lift2 "sub" ( -. ) a b
let scale s m = init m.rows m.cols (fun i j -> s *. get m i j)

(* Hot kernels below run on the flat [data] array with unsafe accessors:
   the i-k-j loop order keeps the inner loop walking both [b] and the
   output row contiguously, with no bounds checks. Dimension checks stay
   at the entry. *)

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: inner dimension mismatch";
  let m = a.rows and n = a.cols and p = b.cols in
  let out = create m p in
  let ad = a.data and bd = b.data and od = out.data in
  for i = 0 to m - 1 do
    let arow = i * n and orow = i * p in
    for k = 0 to n - 1 do
      let aik = Array.unsafe_get ad (arow + k) in
      let brow = k * p in
      for j = 0 to p - 1 do
        Array.unsafe_set od (orow + j)
          (Array.unsafe_get od (orow + j) +. (aik *. Array.unsafe_get bd (brow + j)))
      done
    done
  done;
  out

let mul_vec m v =
  if m.cols <> Array.length v then invalid_arg "Mat.mul_vec: dimension mismatch";
  let rows = m.rows and cols = m.cols in
  let d = m.data in
  Array.init rows (fun i ->
      let row = i * cols in
      let acc = ref 0. in
      for j = 0 to cols - 1 do
        acc := !acc +. (Array.unsafe_get d (row + j) *. Array.unsafe_get v j)
      done;
      !acc)

let trace m =
  let n = Stdlib.min m.rows m.cols in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. get m i i
  done;
  !acc

let frobenius_norm m =
  sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. m.data)

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol) a.data b.data

let permute_rows_cols m p =
  if m.rows <> m.cols then invalid_arg "Mat.permute_rows_cols: not square";
  if Array.length p <> m.rows then
    invalid_arg "Mat.permute_rows_cols: permutation length mismatch";
  init m.rows m.cols (fun i j -> get m p.(i) p.(j))

(* LU with partial pivoting (Doolittle).  The factorization is stored packed
   in a single matrix: unit lower factor strictly below the diagonal, upper
   factor on and above it. *)
let lu m =
  if m.rows <> m.cols then invalid_arg "Mat.lu: not square";
  let n = m.rows in
  let a = copy m in
  let perm = Array.init n (fun i -> i) in
  let sign = ref 1 in
  let singular = ref false in
  (try
     for k = 0 to n - 1 do
       (* Pivot search in column k. *)
       let piv = ref k in
       for i = k + 1 to n - 1 do
         if Float.abs (get a i k) > Float.abs (get a !piv k) then piv := i
       done;
       if Float.abs (get a !piv k) < 1e-300 then begin
         singular := true;
         raise Exit
       end;
       if !piv <> k then begin
         for j = 0 to n - 1 do
           let t = get a k j in
           set a k j (get a !piv j);
           set a !piv j t
         done;
         let t = perm.(k) in
         perm.(k) <- perm.(!piv);
         perm.(!piv) <- t;
         sign := - !sign
       end;
       for i = k + 1 to n - 1 do
         let factor = get a i k /. get a k k in
         set a i k factor;
         for j = k + 1 to n - 1 do
           set a i j (get a i j -. (factor *. get a k j))
         done
       done
     done
   with Exit -> ());
  if !singular then None else Some (a, perm, !sign)

(* Substitution with an already-packed factorization, so callers that
   solve against the same matrix repeatedly (e.g. the rank-1 update
   below) factor once. *)
let lu_solve (f, perm) b =
  let n = Array.length perm in
  let x = Array.init n (fun i -> b.(perm.(i))) in
  (* Forward substitution with the unit lower factor. *)
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      x.(i) <- x.(i) -. (get f i j *. x.(j))
    done
  done;
  (* Back substitution with the upper factor. *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (get f i j *. x.(j))
    done;
    x.(i) <- x.(i) /. get f i i
  done;
  x

let solve a b =
  if a.rows <> Array.length b then invalid_arg "Mat.solve: dimension mismatch";
  match lu a with
  | None -> None
  | Some (f, perm, _) -> Some (lu_solve (f, perm) b)

let det m =
  match lu m with
  | None -> 0.
  | Some (f, _, sign) ->
    let acc = ref (float_of_int sign) in
    for i = 0 to m.rows - 1 do
      acc := !acc *. get f i i
    done;
    !acc

let inverse m =
  if m.rows <> m.cols then invalid_arg "Mat.inverse: not square";
  let n = m.rows in
  match lu m with
  | None -> None
  | Some _ ->
    let inv = create n n in
    let ok = ref true in
    for j = 0 to n - 1 do
      let e = Array.init n (fun i -> if i = j then 1. else 0.) in
      match solve m e with
      | None -> ok := false
      | Some col ->
        for i = 0 to n - 1 do
          set inv i j col.(i)
        done
    done;
    if !ok then Some inv else None

let diagonal m =
  let n = Stdlib.min m.rows m.cols in
  Array.init n (fun i -> get m i i)

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "[@[<hov>";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf ";@ ";
      Format.fprintf ppf "%10.6g" (get m i j)
    done;
    Format.fprintf ppf "@]]";
    if i < m.rows - 1 then Format.pp_print_cut ppf ()
  done;
  Format.fprintf ppf "@]"

(* Compressed sparse rows over the same flat float conventions as the
   dense type: [values] is the row-major concatenation of the stored
   entries, [col_idx] their column indices (strictly increasing within a
   row), and [row_ptr] the per-row slice bounds.  Entries outside the
   stored pattern are exactly +0.0, matching what a dense
   finite-difference column writes for structurally-decoupled pairs —
   which is what makes [to_dense] round-trips bit-exact against the
   dense Jacobian path. *)
module Sparse = struct
  type dense = t

  (* The outer constructors/accessors, captured before the sparse
     definitions shadow their names. *)
  let dense_create = create
  let dense_get = get

  type t = {
    srows : int;
    scols : int;
    row_ptr : int array;
    col_idx : int array;
    values : float array;
  }

  let create ~rows ~cols ~row_ptr ~col_idx ~values =
    if rows < 0 || cols < 0 then invalid_arg "Mat.Sparse.create: negative dimension";
    if Array.length row_ptr <> rows + 1 then
      invalid_arg "Mat.Sparse.create: row_ptr length must be rows + 1";
    if rows >= 0 && (Array.length row_ptr = 0 || row_ptr.(0) <> 0) then
      invalid_arg "Mat.Sparse.create: row_ptr must start at 0";
    let nnz = Array.length col_idx in
    if Array.length values <> nnz then
      invalid_arg "Mat.Sparse.create: col_idx/values length mismatch";
    if row_ptr.(rows) <> nnz then
      invalid_arg "Mat.Sparse.create: row_ptr must end at the entry count";
    for i = 0 to rows - 1 do
      if row_ptr.(i) > row_ptr.(i + 1) then
        invalid_arg "Mat.Sparse.create: row_ptr must be non-decreasing";
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        if col_idx.(k) < 0 || col_idx.(k) >= cols then
          invalid_arg "Mat.Sparse.create: column index out of bounds";
        if k > row_ptr.(i) && col_idx.(k) <= col_idx.(k - 1) then
          invalid_arg "Mat.Sparse.create: columns must be strictly increasing per row"
      done
    done;
    {
      srows = rows;
      scols = cols;
      row_ptr = Array.copy row_ptr;
      col_idx = Array.copy col_idx;
      values = Array.copy values;
    }

  let rows s = s.srows
  let cols s = s.scols
  let nnz s = Array.length s.values
  let copy s = { s with values = Array.copy s.values }
  let to_csr s = (Array.copy s.row_ptr, Array.copy s.col_idx, Array.copy s.values)

  (* Position of (i, j) in the stored pattern, by binary search within
     row i; -1 when the entry is structurally zero. *)
  let find s i j =
    let lo = ref s.row_ptr.(i) and hi = ref (s.row_ptr.(i + 1) - 1) in
    let pos = ref (-1) in
    while !pos < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let c = s.col_idx.(mid) in
      if c = j then pos := mid else if c < j then lo := mid + 1 else hi := mid - 1
    done;
    !pos

  let get s i j =
    if i < 0 || i >= s.srows || j < 0 || j >= s.scols then
      invalid_arg "Mat.Sparse.get: index out of bounds";
    let pos = find s i j in
    if pos < 0 then 0. else s.values.(pos)

  let set_existing s i j x =
    if i < 0 || i >= s.srows || j < 0 || j >= s.scols then
      invalid_arg "Mat.Sparse.set_existing: index out of bounds";
    let pos = find s i j in
    if pos < 0 then invalid_arg "Mat.Sparse.set_existing: entry outside the pattern";
    s.values.(pos) <- x

  let has_pattern s cols =
    Array.length cols = s.srows
    && (let ok = ref true in
        Array.iteri
          (fun i c ->
            let lo = s.row_ptr.(i) in
            if s.row_ptr.(i + 1) - lo <> Array.length c then ok := false
            else Array.iteri (fun k j -> if s.col_idx.(lo + k) <> j then ok := false) c)
          cols;
        !ok)

  let iter_row s i f =
    if i < 0 || i >= s.srows then invalid_arg "Mat.Sparse.iter_row: row out of bounds";
    for k = s.row_ptr.(i) to s.row_ptr.(i + 1) - 1 do
      f s.col_idx.(k) s.values.(k)
    done

  let to_dense s =
    let m = dense_create s.srows s.scols in
    for i = 0 to s.srows - 1 do
      for k = s.row_ptr.(i) to s.row_ptr.(i + 1) - 1 do
        unsafe_set m i s.col_idx.(k) s.values.(k)
      done
    done;
    m

  let of_dense m =
    let r = m.rows and c = m.cols in
    let row_cols =
      Array.init r (fun i ->
          let acc = ref [] in
          for j = c - 1 downto 0 do
            if dense_get m i j <> 0. then acc := j :: !acc
          done;
          Array.of_list !acc)
    in
    let row_ptr = Array.make (r + 1) 0 in
    for i = 0 to r - 1 do
      row_ptr.(i + 1) <- row_ptr.(i) + Array.length row_cols.(i)
    done;
    let nnz = row_ptr.(r) in
    let col_idx = Array.make nnz 0 and values = Array.make nnz 0. in
    for i = 0 to r - 1 do
      Array.iteri
        (fun k j ->
          col_idx.(row_ptr.(i) + k) <- j;
          values.(row_ptr.(i) + k) <- dense_get m i j)
        row_cols.(i)
    done;
    create ~rows:r ~cols:c ~row_ptr ~col_idx ~values

  let mul_vec s v =
    if s.scols <> Array.length v then invalid_arg "Mat.Sparse.mul_vec: dimension mismatch";
    Array.init s.srows (fun i ->
        let acc = ref 0. in
        for k = s.row_ptr.(i) to s.row_ptr.(i + 1) - 1 do
          acc :=
            !acc
            +. (Array.unsafe_get s.values k
               *. Array.unsafe_get v (Array.unsafe_get s.col_idx k))
        done;
        !acc)

  let diagonal s =
    let n = Stdlib.min s.srows s.scols in
    Array.init n (fun i ->
        let pos = find s i i in
        if pos < 0 then 0. else s.values.(pos))

  let equal a b =
    a.srows = b.srows && a.scols = b.scols && a.row_ptr = b.row_ptr
    && a.col_idx = b.col_idx
    && Array.for_all2 (fun (x : float) y -> Int64.bits_of_float x = Int64.bits_of_float y)
         a.values b.values
end
