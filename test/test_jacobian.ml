open Ffc_numerics
open Ffc_topology
open Ffc_core
open Test_util

(* The production engine on an arbitrary map: the full pattern, one
   column per probe group. *)
let numeric ?mode f ~at =
  Mat.Sparse.to_dense
    (Jacobian.numeric_sparse ?mode f ~pattern:(Sparsity.full (Array.length at)) ~at)

let test_numeric_linear_map () =
  (* Jacobian of an affine map recovers its matrix exactly. *)
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let f x = Mat.mul_vec a x in
  let j = numeric f ~at:[| 0.3; 0.7 |] in
  check_true "exact for linear maps" (Mat.approx_equal ~tol:1e-6 j a)

let test_numeric_nonlinear () =
  (* f(x,y) = (x^2, x*y): J = [[2x, 0], [y, x]]. *)
  let f v = [| v.(0) ** 2.; v.(0) *. v.(1) |] in
  let j = numeric f ~at:[| 2.; 3. |] in
  check_float ~tol:1e-5 "d(x^2)/dx" 4. (Mat.get j 0 0);
  check_float ~tol:1e-5 "d(x^2)/dy" 0. (Mat.get j 0 1);
  check_float ~tol:1e-5 "d(xy)/dx" 3. (Mat.get j 1 0);
  check_float ~tol:1e-5 "d(xy)/dy" 2. (Mat.get j 1 1)

let test_modes_agree_on_smooth_map () =
  let f v = [| sin v.(0); cos v.(1) |] in
  let at = [| 0.4; 0.9 |] in
  let c = numeric ~mode:Jacobian.Central f ~at in
  let fwd = numeric ~mode:Jacobian.Forward f ~at in
  let bwd = numeric ~mode:Jacobian.Backward f ~at in
  check_true "central ~ forward" (Mat.approx_equal ~tol:1e-5 c fwd);
  check_true "central ~ backward" (Mat.approx_equal ~tol:1e-5 c bwd)

let test_aggregate_df_matches_paper () =
  (* Section 3.3: at a single gateway with B = C/(1+C) and f = eta(beta-b),
     DF_ij = delta_ij - eta exactly. *)
  let n = 4 and eta = 0.1 in
  let net = Topologies.single ~n () in
  let c =
    Controller.homogeneous ~config:Feedback.aggregate_fifo
      ~adjuster:(Rate_adjust.additive ~eta ~beta:0.5)
      ~n
  in
  let fair = Array.make n (0.5 /. float_of_int n) in
  let df = Jacobian.of_controller_sparse c ~net ~at:fair in
  let expected = Mat.init n n (fun i j -> (if i = j then 1. else 0.) -. eta) in
  check_true "DF = I - eta * ones"
    (Mat.approx_equal ~tol:1e-5 (Mat.Sparse.to_dense df) expected)

let test_aggregate_eigenvalue_formula () =
  (* Leading eigenvalue 1 - eta*N (plus N-1 unit eigenvalues along the
     steady-state manifold). *)
  let n = 6 and eta = 0.3 in
  let net = Topologies.single ~n () in
  let c =
    Controller.homogeneous ~config:Feedback.aggregate_fifo
      ~adjuster:(Rate_adjust.additive ~eta ~beta:0.5)
      ~n
  in
  let fair = Array.make n (0.5 /. float_of_int n) in
  let df = Jacobian.of_controller_sparse c ~net ~at:fair in
  let ev = Eigen.sort_by_modulus (Eigen.eigenvalues df) in
  let smallest = Array.fold_left (fun acc z -> Float.min acc z.Complex.re) 1. ev in
  check_float ~tol:1e-4 "leading eigenvalue 1 - eta N"
    (1. -. (eta *. float_of_int n))
    smallest

let test_unilateral_vs_systemic_gap () =
  (* eta = 0.1, N = 30: |DF_ii| = 0.9 < 1 (unilaterally stable) yet the
     eigenvalue 1 - 3 = -2 breaks systemic stability — the paper's
     counterexample. *)
  let n = 30 and eta = 0.1 in
  let net = Topologies.single ~n () in
  let c =
    Controller.homogeneous ~config:Feedback.aggregate_fifo
      ~adjuster:(Rate_adjust.additive ~eta ~beta:0.5)
      ~n
  in
  let fair = Array.make n (0.5 /. float_of_int n) in
  let df = Jacobian.of_controller_sparse c ~net ~at:fair in
  check_true "unilaterally stable" (Jacobian.unilaterally_stable df);
  check_false "systemically unstable"
    (Jacobian.systemically_stable ~ignore_unit:(n - 1) df);
  check_float ~tol:1e-3 "spectral radius = |1 - eta N|" 2.
    (Jacobian.spectral_radius_sparse df)

let heterogeneous_fs_controller () =
  (* Individual + FS with distinct betas gives a steady state with
     distinct rates — the clean setting for Theorem 4's triangularity. *)
  let net = Topologies.single ~n:2 () in
  let c =
    Controller.create ~config:Feedback.individual_fair_share
      ~adjusters:[| Scenario.timid_adjuster; Scenario.greedy_adjuster |]
  in
  (net, c)

let test_fs_triangular_df () =
  let net, c = heterogeneous_fs_controller () in
  match Controller.run c ~net ~r0:[| 0.1; 0.1 |] with
  | Controller.Converged { steady; _ } ->
    (* Steady state from Section 3: r = (0.15, 0.55). *)
    check_vec ~tol:1e-5 "steady rates" [| 0.15; 0.55 |] steady;
    let df = Jacobian.of_controller_sparse ~mode:Jacobian.Forward c ~net ~at:steady in
    check_true "DF triangular in rate order"
      (Jacobian.triangular_in_rate_order ~tol:1e-4 df ~rates:steady);
    check_true "unilateral implies systemic here"
      (Jacobian.unilaterally_stable df = Jacobian.systemically_stable df)
  | _ -> Alcotest.fail "heterogeneous FS system should converge"

let test_fifo_df_not_triangular () =
  (* The same heterogeneous setting under FIFO couples all connections:
     DF has no triangular structure. *)
  let net = Topologies.single ~n:2 () in
  let c =
    Controller.create ~config:Feedback.individual_fifo
      ~adjusters:[| Scenario.timid_adjuster; Scenario.greedy_adjuster |]
  in
  match Controller.run c ~net ~r0:[| 0.1; 0.1 |] with
  | Controller.Converged { steady; _ } ->
    let df = Jacobian.of_controller_sparse ~mode:Jacobian.Forward c ~net ~at:steady in
    check_false "FIFO DF is full"
      (Jacobian.triangular_in_rate_order ~tol:1e-4 df ~rates:steady)
  | _ -> Alcotest.fail "heterogeneous FIFO system should converge"

(* A Fair Share population with distinct betas (so distinct steady
   rates) and a distinct-rate evaluation point. *)
let fs_population n =
  let net = Topologies.single ~mu:1. ~n () in
  let adjusters =
    Array.init n (fun i ->
        let beta = 0.2 +. (0.6 *. (float_of_int i +. 0.5) /. float_of_int n) in
        Rate_adjust.additive ~eta:0.1 ~beta)
  in
  (net, Controller.create ~config:Feedback.individual_fair_share ~adjusters)

let distinct_point n =
  let scale = 0.5 /. (float_of_int n *. float_of_int (n + 1) /. 2.) in
  Array.init n (fun i -> scale *. float_of_int (i + 1))

let test_jobs_bit_identical () =
  (* Pooled columns must reproduce the sequential Jacobian bit for bit,
     in every difference mode — the determinism contract of the pool. *)
  let n = 24 in
  let net, c = fs_population n in
  let at = distinct_point n in
  List.iter
    (fun (name, mode) ->
      let a = Jacobian.of_controller_sparse ~jobs:1 ~mode c ~net ~at in
      let b = Jacobian.of_controller_sparse ~jobs:8 ~mode c ~net ~at in
      check_true (name ^ ": jobs=1 and jobs=8 bit-identical") (Mat.Sparse.equal a b))
    [
      ("central", Jacobian.Central);
      ("forward", Jacobian.Forward);
      ("backward", Jacobian.Backward);
    ]

let test_fs_fast_path_matches_dense_qr () =
  (* Random converged FS populations: the exact-zero structure detection
     must fire on the numeric Jacobian, and the Theorem-4 diagonal read
     must agree with the dense QR iteration on the same matrix to 1e-9. *)
  let rng = Rng.create 7 in
  for trial = 1 to 5 do
    let n = 3 + Rng.int rng 6 in
    let net, c = fs_population n in
    let r0 = Array.init n (fun _ -> Rng.range rng 0.01 0.2) in
    match Controller.run ~max_steps:40_000 c ~net ~r0 with
    | Controller.Converged { steady; _ } ->
      let df = Jacobian.of_controller_sparse c ~net ~at:steady in
      let dense = Mat.Sparse.to_dense df in
      check_true
        (Printf.sprintf "trial %d: structure detected" trial)
        (Eigen.structural_eigenvalues df <> None);
      check_float ~tol:1e-9
        (Printf.sprintf "trial %d: fast radius = dense radius" trial)
        (Eigen.spectral_radius (Eigen.eigenvalues_dense dense))
        (Eigen.spectral_radius (Eigen.eigenvalues df));
      let moduli ev =
        let ms = Array.map Complex.norm ev in
        Array.sort Float.compare ms;
        ms
      in
      check_vec ~tol:1e-9
        (Printf.sprintf "trial %d: fast eigenvalues = dense QR" trial)
        (moduli (Eigen.eigenvalues_dense dense))
        (moduli (Eigen.eigenvalues df))
    | _ -> Alcotest.failf "trial %d: FS population should converge" trial
  done

let test_diagonal_accessor () =
  let m = Mat.Sparse.of_dense (Mat.of_arrays [| [| 0.5; 9. |]; [| 9.; -0.25 |] |]) in
  check_vec "diagonal" [| 0.5; -0.25 |] (Jacobian.diagonal m);
  check_true "unilateral on diagonal only" (Jacobian.unilaterally_stable m)

let suites =
  [
    ( "core.jacobian",
      [
        case "linear map exact" test_numeric_linear_map;
        case "nonlinear map" test_numeric_nonlinear;
        case "modes agree when smooth" test_modes_agree_on_smooth_map;
        case "aggregate DF = I - eta*ones (paper)" test_aggregate_df_matches_paper;
        case "eigenvalue 1 - eta*N (paper)" test_aggregate_eigenvalue_formula;
        case "unilateral/systemic gap (paper)" test_unilateral_vs_systemic_gap;
        case "Theorem 4: FS triangular DF" test_fs_triangular_df;
        case "FIFO DF not triangular" test_fifo_df_not_triangular;
        case "pooled columns bit-identical" test_jobs_bit_identical;
        case "FS fast path matches dense QR" test_fs_fast_path_matches_dense_qr;
        case "diagonal accessor" test_diagonal_accessor;
      ] );
  ]
