open Ffc_numerics
open Test_util

(* Matrices are written densely and handed to the CSR API; [of_dense]
   stores the structural nonzeros. *)
let sp = Mat.Sparse.of_dense
let eigenvalues m = Eigen.eigenvalues (sp m)

let sorted_reals ev =
  let rs = Array.map (fun z -> z.Complex.re) ev in
  Array.sort Float.compare rs;
  rs

let all_real ?(tol = 1e-8) ev = Array.for_all (fun z -> Float.abs z.Complex.im <= tol) ev

let test_diagonal () =
  let m = Mat.of_arrays [| [| 3.; 0.; 0. |]; [| 0.; -1.; 0. |]; [| 0.; 0.; 2. |] |] in
  let ev = eigenvalues m in
  check_true "all real" (all_real ev);
  check_vec ~tol:1e-10 "diagonal eigenvalues" [| -1.; 2.; 3. |] (sorted_reals ev)

let test_triangular () =
  let m = Mat.of_arrays [| [| 1.; 5.; 7. |]; [| 0.; 4.; 2. |]; [| 0.; 0.; -3. |] |] in
  let ev = eigenvalues m in
  check_vec ~tol:1e-9 "triangular eigenvalues" [| -3.; 1.; 4. |] (sorted_reals ev)

let test_symmetric_2x2 () =
  (* [[2,1],[1,2]] has eigenvalues 1 and 3. *)
  let m = Mat.of_arrays [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  check_vec ~tol:1e-10 "symmetric 2x2" [| 1.; 3. |] (sorted_reals (eigenvalues m))

let test_rotation_complex_pair () =
  (* Rotation by 90 degrees: eigenvalues +-i. *)
  let m = Mat.of_arrays [| [| 0.; -1. |]; [| 1.; 0. |] |] in
  let ev = Eigen.sort_by_modulus (eigenvalues m) in
  Alcotest.(check int) "two eigenvalues" 2 (Array.length ev);
  check_float ~tol:1e-10 "modulus 1 (first)" 1. (Complex.norm ev.(0));
  check_float ~tol:1e-10 "modulus 1 (second)" 1. (Complex.norm ev.(1));
  check_float ~tol:1e-10 "re = 0" 0. ev.(0).Complex.re;
  check_float ~tol:1e-10 "conjugate pair" 0. (ev.(0).Complex.im +. ev.(1).Complex.im);
  check_float ~tol:1e-10 "im = 1" 1. (Float.abs ev.(0).Complex.im)

let test_rank_one_shift () =
  (* I - eta * ones: eigenvalues 1 - eta*n (once) and 1 (n-1 times) — the
     paper's aggregate-feedback stability matrix (Section 3.3). *)
  let n = 6 and eta = 0.3 in
  let m = Mat.init n n (fun i j -> (if i = j then 1. else 0.) -. eta) in
  let ev = Eigen.sort_by_modulus (eigenvalues m) in
  check_true "all real" (all_real ev);
  let rs = sorted_reals ev in
  check_float ~tol:1e-9 "smallest is 1 - eta*n" (1. -. (eta *. float_of_int n)) rs.(0);
  for i = 1 to n - 1 do
    check_float ~tol:1e-9 (Printf.sprintf "unit eigenvalue %d" i) 1. rs.(i)
  done

let test_trace_equals_sum () =
  let m =
    Mat.of_arrays
      [| [| 4.; 1.; 2. |]; [| 0.5; 3.; -1. |]; [| 2.; 0.; 1.5 |] |]
  in
  let ev = eigenvalues m in
  let sum_re = Array.fold_left (fun acc z -> acc +. z.Complex.re) 0. ev in
  let sum_im = Array.fold_left (fun acc z -> acc +. z.Complex.im) 0. ev in
  check_float ~tol:1e-8 "sum of eigenvalues = trace" (Mat.trace m) sum_re;
  check_float ~tol:1e-8 "imaginary parts cancel" 0. sum_im

let test_det_equals_product () =
  let m =
    Mat.of_arrays [| [| 2.; 1.; 0. |]; [| 1.; 3.; 1. |]; [| 0.; 1.; 4. |] |]
  in
  let ev = eigenvalues m in
  let prod =
    Array.fold_left (fun acc z -> Complex.mul acc z) Complex.one ev
  in
  check_float_rel ~tol:1e-8 "product of eigenvalues = det" (Mat.det m) prod.Complex.re

let test_spectral_radius () =
  let m = Mat.of_arrays [| [| 0.5; 0.2 |]; [| 0.1; 0.4 |] |] in
  check_true "contraction radius < 1" (Eigen.spectral_radius (eigenvalues m) < 1.);
  let m2 = Mat.of_arrays [| [| 1.5; 0. |]; [| 0.; 0.2 |] |] in
  check_float ~tol:1e-10 "radius of diag" 1.5 (Eigen.spectral_radius (eigenvalues m2))

let test_is_linearly_stable () =
  let stable = Mat.of_arrays [| [| 0.9; 0. |]; [| 0.; -0.5 |] |] in
  let unstable = Mat.of_arrays [| [| 1.1; 0. |]; [| 0.; 0.5 |] |] in
  check_true "stable matrix" (Eigen.is_linearly_stable (eigenvalues stable));
  check_false "unstable matrix" (Eigen.is_linearly_stable (eigenvalues unstable));
  (* Unit eigenvalue along a steady-state manifold is discounted. *)
  let manifold = Mat.of_arrays [| [| 1.; 0. |]; [| 0.; 0.5 |] |] in
  check_false "unit eigenvalue fails strict test"
    (Eigen.is_linearly_stable (eigenvalues manifold));
  check_true "unit eigenvalue ignored on manifold"
    (Eigen.is_linearly_stable ~ignore_unit:1 (eigenvalues manifold))

let test_hessenberg_structure () =
  let m = Mat.init 5 5 (fun i j -> float_of_int (((i + 2) * (j + 1)) mod 7) +. 1.) in
  let h = Eigen.hessenberg m in
  let ok = ref true in
  for i = 0 to 4 do
    for j = 0 to i - 2 do
      if Float.abs (Mat.get h i j) > 1e-12 then ok := false
    done
  done;
  check_true "below-subdiagonal zero" !ok;
  (* Similarity preserves eigenvalues (compare sorted moduli). *)
  let norms m =
    let ns = Array.map Complex.norm (eigenvalues m) in
    Array.sort Float.compare ns;
    ns
  in
  check_vec ~tol:1e-6 "hessenberg preserves spectrum" (norms m) (norms h)

let test_power_iteration () =
  let m = Mat.of_arrays [| [| 2.; 0. |]; [| 0.; 0.5 |] |] in
  match Eigen.power_iteration (sp m) with
  | None -> Alcotest.fail "power iteration should converge"
  | Some (lambda, v) ->
    check_float ~tol:1e-8 "dominant eigenvalue" 2. lambda;
    check_float ~tol:1e-6 "eigenvector second comp ~ 0" 0. (Float.abs v.(1))

let test_1x1_and_empty () =
  let one = Mat.of_arrays [| [| 42. |] |] in
  let ev = eigenvalues one in
  check_float "1x1 eigenvalue" 42. ev.(0).Complex.re;
  Alcotest.(check int) "0x0 no eigenvalues" 0 (Array.length (eigenvalues (Mat.create 0 0)))

let test_triangular_eigenvalues () =
  let lower = Mat.of_arrays [| [| 1.; 0. |]; [| 5.; 2. |] |] in
  (match Eigen.structural_eigenvalues (sp lower) with
  | None -> Alcotest.fail "lower triangular"
  | Some d -> check_vec "diagonal returned" [| 1.; 2. |] d);
  let full = Mat.of_arrays [| [| 1.; 3. |]; [| 5.; 2. |] |] in
  check_true "non-triangular rejected" (Eigen.structural_eigenvalues (sp full) = None)

let test_triangular_order_detection () =
  let lower =
    Mat.of_arrays [| [| 1.; 0.; 0. |]; [| 5.; 2.; 0. |]; [| 1.; 7.; 3. |] |]
  in
  (match Eigen.triangular_order (sp lower) with
  | None -> Alcotest.fail "lower triangular not detected"
  | Some order ->
    check_true "order triangularizes"
      (is_lower_triangular (Mat.permute_rows_cols lower order)));
  let upper = Mat.of_arrays [| [| 1.; 4. |]; [| 0.; 2. |] |] in
  (match Eigen.triangular_order (sp upper) with
  | None -> Alcotest.fail "upper triangular not detected"
  | Some order ->
    check_true "reversal triangularizes"
      (is_lower_triangular (Mat.permute_rows_cols upper order)));
  let dense = Mat.of_arrays [| [| 1.; 4. |]; [| 5.; 2. |] |] in
  check_true "dense rejected" (Eigen.triangular_order (sp dense) = None);
  (* Default detection is exact-zero; a tolerance widens it. *)
  let noisy = Mat.of_arrays [| [| 1.; 1e-12 |]; [| 5.; 2. |] |] in
  check_true "sub-tolerance entry blocks exact detection"
    (Eigen.triangular_order (sp noisy) = None);
  check_true "tolerance admits it" (Eigen.triangular_order ~tol:1e-9 (sp noisy) <> None)

let test_permuted_triangular_fast_path () =
  (* A lower triangular L conjugated by a permutation: the structural
     path must find the order, read the diagonal, and agree with the
     dense QR iteration on the same matrix to 1e-9. *)
  let n = 12 in
  let l =
    Mat.init n n (fun i j ->
        if j > i then 0.
        else if i = j then 2. +. float_of_int i
        else sin (float_of_int ((3 * i) + j)))
  in
  let p = [| 7; 2; 9; 0; 11; 4; 1; 10; 3; 6; 8; 5 |] in
  let pinv = Array.make n 0 in
  Array.iteri (fun i pi -> pinv.(pi) <- i) p;
  let m = Mat.init n n (fun i j -> Mat.get l pinv.(i) pinv.(j)) in
  (match Eigen.structural_eigenvalues (sp m) with
  | None -> Alcotest.fail "permuted triangular structure not detected"
  | Some d ->
    let got = Array.copy d and expected = Mat.diagonal l in
    Array.sort Float.compare got;
    Array.sort Float.compare expected;
    check_vec ~tol:0. "diagonal preserved as a set" expected got);
  check_float ~tol:1e-9 "fast radius = dense radius"
    (Eigen.spectral_radius (Eigen.eigenvalues_dense m))
    (Eigen.spectral_radius (eigenvalues m));
  let fast = sorted_reals (eigenvalues m) in
  let dense = sorted_reals (Eigen.eigenvalues_dense m) in
  check_vec ~tol:1e-9 "fast eigenvalues = dense QR" dense fast

let test_defective_matrix () =
  (* Jordan block [[1,1],[0,1]]: eigenvalue 1 with multiplicity 2 and a
     single eigenvector — the QR iteration must still report both. *)
  let m = Mat.of_arrays [| [| 1.; 1. |]; [| 0.; 1. |] |] in
  check_vec ~tol:1e-6 "double eigenvalue 1" [| 1.; 1. |] (sorted_reals (eigenvalues m))

let test_nilpotent_matrix () =
  let m = Mat.of_arrays [| [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |]; [| 0.; 0.; 0. |] |] in
  let ev = eigenvalues m in
  Array.iter (fun z -> check_float ~tol:1e-6 "all zero" 0. (Complex.norm z)) ev

let test_large_symmetric_spectrum () =
  (* Tridiagonal -1,2,-1 of size n has eigenvalues 2 - 2cos(k pi/(n+1)). *)
  let n = 16 in
  let m =
    Mat.init n n (fun i j ->
        if i = j then 2. else if abs (i - j) = 1 then -1. else 0.)
  in
  let got = sorted_reals (eigenvalues m) in
  let expected =
    Array.init n (fun k ->
        2. -. (2. *. cos (float_of_int (k + 1) *. Float.pi /. float_of_int (n + 1))))
  in
  Array.sort Float.compare expected;
  check_vec ~tol:1e-8 "tridiagonal spectrum" expected got

let gen_mat n =
  QCheck2.Gen.(
    array_size (pure (n * n)) (float_range (-5.) 5.)
    |> map (fun data -> Mat.init n n (fun i j -> data.((i * n) + j))))

let prop_trace_sum =
  prop "eigenvalue sum = trace" ~count:60 (gen_mat 5) (fun m ->
      let ev = eigenvalues m in
      let s = Array.fold_left (fun acc z -> acc +. z.Complex.re) 0. ev in
      Float.abs (s -. Mat.trace m) <= 1e-6 *. (1. +. Float.abs (Mat.trace m)))

let prop_conjugate_pairs =
  prop "complex eigenvalues come in conjugate pairs" ~count:60 (gen_mat 4) (fun m ->
      let ev = eigenvalues m in
      let im_sum = Array.fold_left (fun acc z -> acc +. z.Complex.im) 0. ev in
      Float.abs im_sum <= 1e-7)

let suites =
  [
    ( "numerics.eigen",
      [
        case "diagonal matrix" test_diagonal;
        case "triangular matrix" test_triangular;
        case "symmetric 2x2" test_symmetric_2x2;
        case "rotation complex pair" test_rotation_complex_pair;
        case "rank-one shift (paper DF)" test_rank_one_shift;
        case "trace = eigenvalue sum" test_trace_equals_sum;
        case "det = eigenvalue product" test_det_equals_product;
        case "spectral radius" test_spectral_radius;
        case "linear stability predicate" test_is_linearly_stable;
        case "hessenberg structure" test_hessenberg_structure;
        case "power iteration" test_power_iteration;
        case "1x1 and empty" test_1x1_and_empty;
        case "triangular eigenvalues" test_triangular_eigenvalues;
        case "triangular-order detection" test_triangular_order_detection;
        case "permuted-triangular fast path" test_permuted_triangular_fast_path;
        case "defective (Jordan) matrix" test_defective_matrix;
        case "nilpotent matrix" test_nilpotent_matrix;
        case "tridiagonal spectrum (n=16)" test_large_symmetric_spectrum;
        prop_trace_sum;
        prop_conjugate_pairs;
      ] );
  ]
