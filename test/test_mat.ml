open Ffc_numerics
open Test_util

let m22 a b c d = Mat.of_arrays [| [| a; b |]; [| c; d |] |]

let test_create_get_set () =
  let m = Mat.create 2 3 in
  Alcotest.(check int) "rows" 2 (Mat.rows m);
  Alcotest.(check int) "cols" 3 (Mat.cols m);
  check_float "zero init" 0. (Mat.get m 1 2);
  Mat.set m 1 2 5.;
  check_float "set/get" 5. (Mat.get m 1 2)

let test_bounds () =
  let m = Mat.create 2 2 in
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Mat.get: index out of bounds")
    (fun () -> ignore (Mat.get m 2 0))

let test_identity_mul () =
  let i3 = Mat.identity 3 in
  let m = Mat.init 3 3 (fun i j -> float_of_int ((i * 3) + j)) in
  check_true "I*m = m" (Mat.approx_equal (Mat.mul i3 m) m);
  check_true "m*I = m" (Mat.approx_equal (Mat.mul m i3) m)

let test_mul_known () =
  let a = m22 1. 2. 3. 4. and b = m22 5. 6. 7. 8. in
  let expected = m22 19. 22. 43. 50. in
  check_true "2x2 product" (Mat.approx_equal (Mat.mul a b) expected)

let test_mul_vec () =
  let a = m22 1. 2. 3. 4. in
  check_vec "matvec" [| 5.; 11. |] (Mat.mul_vec a [| 1.; 2. |])

let test_transpose () =
  let a = Mat.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Mat.transpose a in
  Alcotest.(check int) "transpose rows" 3 (Mat.rows t);
  check_float "t(0,1)" 4. (Mat.get t 0 1);
  check_true "double transpose" (Mat.approx_equal (Mat.transpose t) a)

let test_trace_frobenius () =
  let a = m22 1. 2. 3. 4. in
  check_float "trace" 5. (Mat.trace a);
  check_float "frobenius" (sqrt 30.) (Mat.frobenius_norm a)

let test_solve_known () =
  (* 2x + y = 5; x + 3y = 10 -> x = 1, y = 3 *)
  let a = m22 2. 1. 1. 3. in
  match Mat.solve a [| 5.; 10. |] with
  | None -> Alcotest.fail "system should be solvable"
  | Some x -> check_vec ~tol:1e-12 "solution" [| 1.; 3. |] x

let test_solve_singular () =
  let a = m22 1. 2. 2. 4. in
  check_true "singular detected" (Mat.solve a [| 1.; 2. |] = None)

let test_det () =
  check_float ~tol:1e-12 "det 2x2" (-2.) (Mat.det (m22 1. 2. 3. 4.));
  check_float ~tol:1e-12 "det singular" 0. (Mat.det (m22 1. 2. 2. 4.));
  check_float ~tol:1e-9 "det identity" 1. (Mat.det (Mat.identity 5))

let test_inverse () =
  let a = m22 4. 7. 2. 6. in
  match Mat.inverse a with
  | None -> Alcotest.fail "invertible matrix"
  | Some inv ->
    check_true "a * a^-1 = I"
      (Mat.approx_equal ~tol:1e-12 (Mat.mul a inv) (Mat.identity 2))

let test_inverse_singular () =
  check_true "singular has no inverse" (Mat.inverse (m22 1. 2. 2. 4.) = None)

let test_triangular_predicates () =
  let lower = m22 1. 0. 5. 2. in
  let upper = m22 1. 5. 0. 2. in
  let full = m22 1. 5. 5. 2. in
  check_true "lower detected" (is_lower_triangular lower);
  check_false "upper is not lower" (is_lower_triangular upper);
  check_false "full is not lower" (is_lower_triangular full)

let test_permute () =
  let m = m22 1. 2. 3. 4. in
  let p = Mat.permute_rows_cols m [| 1; 0 |] in
  check_true "permuted" (Mat.approx_equal p (m22 4. 3. 2. 1.))

let test_diagonal () =
  check_vec "diagonal" [| 1.; 4. |] (Mat.diagonal (m22 1. 2. 3. 4.))

let test_lu_reconstruction () =
  let a =
    Mat.of_arrays [| [| 2.; 1.; 1. |]; [| 4.; -6.; 0. |]; [| -2.; 7.; 2. |] |]
  in
  match Mat.lu a with
  | None -> Alcotest.fail "matrix is nonsingular"
  | Some (f, perm, _) ->
    (* Rebuild P*A = L*U from the packed factors. *)
    let n = 3 in
    let l = Mat.identity n and u = Mat.create n n in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if j < i then Mat.set l i j (Mat.get f i j) else Mat.set u i j (Mat.get f i j)
      done
    done;
    let pa = Mat.init n n (fun i j -> Mat.get a perm.(i) j) in
    check_true "PA = LU" (Mat.approx_equal ~tol:1e-12 (Mat.mul l u) pa)

let gen_mat n =
  QCheck2.Gen.(
    array_size (pure (n * n)) (float_range (-10.) 10.)
    |> map (fun data -> Mat.init n n (fun i j -> data.((i * n) + j))))

let prop_solve_residual =
  prop "solve gives small residual" ~count:100
    QCheck2.Gen.(pair (gen_mat 4) (array_size (pure 4) (float_range (-10.) 10.)))
    (fun (a, b) ->
      match Mat.solve a b with
      | None -> true (* singular draw *)
      | Some x ->
        let r = Vec.sub (Mat.mul_vec a x) b in
        Vec.norm_inf r <= 1e-6 *. (1. +. Vec.norm_inf b))

let prop_det_product =
  prop "det is multiplicative" ~count:60
    QCheck2.Gen.(pair (gen_mat 3) (gen_mat 3))
    (fun (a, b) ->
      let lhs = Mat.det (Mat.mul a b) and rhs = Mat.det a *. Mat.det b in
      Float.abs (lhs -. rhs) <= 1e-6 *. (1. +. Float.abs rhs))

let prop_transpose_involution =
  prop "transpose involutive" ~count:100 (gen_mat 5) (fun m ->
      Mat.approx_equal (Mat.transpose (Mat.transpose m)) m)

let suites =
  [
    ( "numerics.mat",
      [
        case "create/get/set" test_create_get_set;
        case "bounds checking" test_bounds;
        case "identity multiplication" test_identity_mul;
        case "known product" test_mul_known;
        case "matrix-vector product" test_mul_vec;
        case "transpose" test_transpose;
        case "trace and frobenius" test_trace_frobenius;
        case "solve known system" test_solve_known;
        case "solve singular" test_solve_singular;
        case "determinants" test_det;
        case "inverse" test_inverse;
        case "inverse singular" test_inverse_singular;
        case "triangular predicates" test_triangular_predicates;
        case "permutation" test_permute;
        case "diagonal" test_diagonal;
        case "LU reconstruction" test_lu_reconstruction;
        prop_solve_residual;
        prop_det_product;
        prop_transpose_involution;
      ] );
  ]
