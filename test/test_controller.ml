open Ffc_numerics
open Ffc_topology
open Ffc_core
open Test_util

let single n = Topologies.single ~mu:1. ~n ()

let additive = Rate_adjust.additive ~eta:0.1 ~beta:0.5

let expect_converged = function
  | Controller.Converged { steady; _ } -> steady
  | Controller.Cycle _ -> Alcotest.fail "unexpected cycle"
  | Controller.Diverged _ -> Alcotest.fail "unexpected divergence"
  | Controller.No_convergence _ -> Alcotest.fail "did not converge"

let test_single_connection_converges () =
  (* One connection, B = C/(1+C), individual feedback: b = r exactly, so
     the map is r' = r + eta (beta - r) with fixed point beta. *)
  let net = single 1 in
  let c = Controller.homogeneous ~config:Feedback.individual_fifo ~adjuster:additive ~n:1 in
  let steady = expect_converged (Controller.run c ~net ~r0:[| 0. |]) in
  check_float ~tol:1e-8 "steady at beta*mu" 0.5 steady.(0)

let test_aggregate_preserves_differences () =
  (* Aggregate + additive gives every connection the same increment, so
     initial rate differences persist into the steady state — the
     unfairness of Theorem 2. *)
  let net = single 2 in
  let c = Controller.homogeneous ~config:Feedback.aggregate_fifo ~adjuster:additive ~n:2 in
  let steady = expect_converged (Controller.run c ~net ~r0:[| 0.1; 0.3 |]) in
  check_float ~tol:1e-7 "difference preserved" 0.2 (steady.(1) -. steady.(0));
  check_float ~tol:1e-7 "total pinned at beta*mu" 0.5 (Vec.sum steady)

let test_individual_erases_differences () =
  (* Individual feedback: unique fair steady state (Theorem 3). *)
  let net = single 2 in
  let c = Controller.homogeneous ~config:Feedback.individual_fifo ~adjuster:additive ~n:2 in
  let steady = expect_converged (Controller.run c ~net ~r0:[| 0.1; 0.3 |]) in
  check_vec ~tol:1e-6 "fair split" [| 0.25; 0.25 |] steady

let test_individual_discipline_independent () =
  (* Corollary: same steady state under FIFO and Fair Share. *)
  let net = single 3 in
  let run config =
    let c = Controller.homogeneous ~config ~adjuster:additive ~n:3 in
    expect_converged (Controller.run c ~net ~r0:[| 0.05; 0.2; 0.4 |])
  in
  let fifo = run Feedback.individual_fifo in
  let fs = run Feedback.individual_fair_share in
  check_vec ~tol:1e-6 "FIFO = FS steady state" fifo fs;
  check_vec ~tol:1e-6 "both fair" [| 1. /. 6.; 1. /. 6.; 1. /. 6. |] fs

let test_overload_start_recovers () =
  (* Start far above capacity: queues are infinite, b = 1, rates decrease
     until the system re-enters the stable region. *)
  let net = single 2 in
  let c = Controller.homogeneous ~config:Feedback.individual_fifo ~adjuster:additive ~n:2 in
  let steady = expect_converged (Controller.run c ~net ~r0:[| 5.; 8. |]) in
  check_vec ~tol:1e-6 "recovers to fair point" [| 0.25; 0.25 |] steady

let test_zero_truncation () =
  (* A single step from rates that would go negative truncates at 0. *)
  let net = single 1 in
  let aggressive = Rate_adjust.additive ~eta:100. ~beta:0.5 in
  let c = Controller.homogeneous ~config:Feedback.individual_fifo ~adjuster:aggressive ~n:1 in
  let next = Controller.step c ~net [| 0.9 |] in
  check_true "truncated at zero" (next.(0) >= 0.)

let test_trajectory_shape () =
  let net = single 1 in
  let c = Controller.homogeneous ~config:Feedback.individual_fifo ~adjuster:additive ~n:1 in
  let traj = Controller.trajectory c ~net ~r0:[| 0. |] ~steps:10 in
  Alcotest.(check int) "11 states" 11 (Array.length traj);
  check_float "starts at r0" 0. traj.(0).(0);
  check_true "monotone approach from below"
    (Array.for_all2 (fun a b -> b.(0) >= a.(0)) (Array.sub traj 0 10) (Array.sub traj 1 10))

let test_unstable_aggregate_does_not_converge () =
  (* Section 3.3: eigenvalue 1 - eta*N = -2 at N = 30, eta = 0.1: the fair
     steady state is unstable; truncation keeps the orbit bounded so it
     lands on a cycle (or fails to converge), never on the steady state. *)
  let n = 30 in
  let net = single n in
  let c = Controller.homogeneous ~config:Feedback.aggregate_fifo ~adjuster:additive ~n in
  let r0 = Array.init n (fun i -> 0.5 /. float_of_int n *. (1. +. (0.01 *. float_of_int i))) in
  match Controller.run ~max_steps:5_000 c ~net ~r0 with
  | Controller.Converged _ -> Alcotest.fail "unstable system must not converge"
  | Controller.Cycle _ | Controller.Diverged _ | Controller.No_convergence _ -> ()

let test_stable_aggregate_converges () =
  (* Below the threshold N < 2/eta the same system converges. *)
  let n = 10 in
  let net = single n in
  let c = Controller.homogeneous ~config:Feedback.aggregate_fifo ~adjuster:additive ~n in
  let r0 = Array.init n (fun i -> 0.01 *. float_of_int (i + 1)) in
  let steady = expect_converged (Controller.run c ~net ~r0) in
  check_float ~tol:1e-6 "total at beta*mu" 0.5 (Vec.sum steady)

let test_cycle_detection () =
  (* eta = 2.5 on a single connection: the scalar map r' = r + eta(beta-r)
     has slope 1 - eta = -1.5: unstable fixed point, bounded 2-cycle. *)
  let net = single 1 in
  let wild = Rate_adjust.additive ~eta:2.5 ~beta:0.5 in
  let c = Controller.homogeneous ~config:Feedback.individual_fifo ~adjuster:wild ~n:1 in
  match Controller.run ~max_steps:10_000 c ~net ~r0:[| 0.4 |] with
  | Controller.Cycle { period; orbit } ->
    Alcotest.(check int) "period 2" 2 period;
    Alcotest.(check int) "orbit length" 2 (Array.length orbit)
  | Controller.Converged _ -> Alcotest.fail "fixed point is unstable at eta=2.5"
  | Controller.Diverged _ -> Alcotest.fail "orbit is bounded"
  | Controller.No_convergence _ -> Alcotest.fail "2-cycle should be detected"

let test_heterogeneous_adjusters () =
  (* Aggregate feedback with different betas: the timid connection is
     driven to zero (Section 3.4's starvation dynamic). *)
  let net = single 2 in
  let c =
    Controller.create ~config:Feedback.aggregate_fifo
      ~adjusters:[| Scenario.timid_adjuster; Scenario.greedy_adjuster |]
  in
  let steady = expect_converged (Controller.run c ~net ~r0:[| 0.2; 0.2 |]) in
  check_float ~tol:1e-7 "timid starved" 0. steady.(0);
  check_float ~tol:1e-6 "greedy takes beta_greedy * mu" 0.7 steady.(1)

let test_steady_state_predicate () =
  let net = single 2 in
  let c = Controller.homogeneous ~config:Feedback.individual_fifo ~adjuster:additive ~n:2 in
  check_true "fair point is steady" (Controller.steady_state c ~net [| 0.25; 0.25 |]);
  check_false "non-steady point rejected" (Controller.steady_state c ~net [| 0.1; 0.1 |])

let test_mismatched_sizes_rejected () =
  let net = single 2 in
  let c = Controller.homogeneous ~config:Feedback.individual_fifo ~adjuster:additive ~n:3 in
  check_true "wrong adjuster count rejected"
    (try
       ignore (Controller.step c ~net [| 0.1; 0.1 |]);
       false
     with Invalid_argument _ -> true)

let test_feedback_weights_validated () =
  (* On single:3: a weight vector of the wrong length is refused before
     any gateway is evaluated (too long used to be silently truncated,
     too short failed with a bare index error inside the step), and a
     weight that is not finite and positive is refused by
     [Feedback.make] (it used to surface as a Signal.eval error). *)
  let net = single 3 in
  let weighted weights =
    Feedback.make ~weights ~style:Congestion.Individual ~signal:Signal.linear_fractional
      ~discipline:Ffc_queueing.Service.fair_share ()
  in
  List.iter
    (fun weights ->
      let c = Controller.homogeneous ~config:(weighted weights) ~adjuster:additive ~n:3 in
      let expected =
        Invalid_argument "Controller: feedback weight count does not match the network"
      in
      let msg what = Printf.sprintf "%d weights: %s" (Array.length weights) what in
      Alcotest.check_raises (msg "step") expected (fun () ->
          ignore (Controller.step c ~net [| 0.1; 0.2; 0.3 |]));
      Alcotest.check_raises (msg "map_rows") expected (fun () ->
          ignore (Controller.map_rows c ~net ~rows:[| 0 |] [| 0.1; 0.2; 0.3 |]));
      Alcotest.check_raises (msg "step_subset") expected (fun () ->
          ignore
            (Controller.step_subset c ~net ~mask:[| true; true; true |] [| 0.1; 0.2; 0.3 |])))
    [ [| 1.; 2.; 3.; 4. |]; [| 1.; 2. |] ];
  List.iter
    (fun w ->
      Alcotest.check_raises (Printf.sprintf "weight %g refused" w)
        (Invalid_argument "Feedback.make: weights must be finite and positive")
        (fun () -> ignore (weighted [| 1.; w; 1. |])))
    [ 0.; -0.; -1.; Float.nan; Float.infinity ];
  (* A matching, positive vector still runs. *)
  let c = Controller.homogeneous ~config:(weighted [| 1.; 2.; 3. |]) ~adjuster:additive ~n:3 in
  check_true "valid weights accepted"
    (Array.for_all Float.is_finite (Controller.step c ~net [| 0.1; 0.2; 0.3 |]))

let test_multi_gateway_bottleneck () =
  (* Parking lot with a fat second gateway: the long connection is
     bottlenecked at gw0; the cross connection at gw1 grabs the slack
     (max-min fairness). *)
  let gws =
    [|
      { Network.gw_name = "g0"; mu = 1.; latency = 0. };
      { Network.gw_name = "g1"; mu = 2.; latency = 0. };
    |]
  in
  let conns =
    [|
      { Network.conn_name = "long"; path = [ 0; 1 ] };
      { Network.conn_name = "cross0"; path = [ 0 ] };
      { Network.conn_name = "cross1"; path = [ 1 ] };
    |]
  in
  let net = Network.create ~gateways:gws ~connections:conns in
  let c = Controller.homogeneous ~config:Feedback.individual_fifo ~adjuster:additive ~n:3 in
  let steady = expect_converged (Controller.run c ~net ~r0:[| 0.1; 0.1; 0.1 |]) in
  let expected = Steady_state.fair ~signal:Signal.linear_fractional ~b_ss:0.5 ~net in
  check_vec ~tol:1e-5 "matches water-filling" expected steady

let test_step_subset () =
  let net = single 2 in
  let c = Controller.homogeneous ~config:Feedback.individual_fifo ~adjuster:additive ~n:2 in
  let r = [| 0.1; 0.1 |] in
  let next = Controller.step_subset c ~net ~mask:[| true; false |] r in
  check_false "masked-in connection moved" (next.(0) = r.(0));
  check_float "masked-out connection held" r.(1) next.(1);
  (* All-true mask equals the synchronous step. *)
  check_vec "full mask = step" (Controller.step c ~net r)
    (Controller.step_subset c ~net ~mask:[| true; true |] r);
  Alcotest.check_raises "mask length checked"
    (Invalid_argument "Controller.step_subset: mask length mismatch") (fun () ->
      ignore (Controller.step_subset c ~net ~mask:[| true |] r))

let test_run_async_reaches_fair_point () =
  let net = single 3 in
  let c = Controller.homogeneous ~config:Feedback.individual_fair_share ~adjuster:additive ~n:3 in
  let rng = Rng.create 77 in
  match Controller.run_async ~p:0.3 ~rng c ~net ~r0:[| 0.02; 0.2; 0.4 |] with
  | Controller.Converged { steady; _ } ->
    check_vec ~tol:1e-5 "async fair point" [| 1. /. 6.; 1. /. 6.; 1. /. 6. |] steady
  | _ -> Alcotest.fail "async schedule should converge"

let test_escape_threaded_sync_and_async () =
  (* r' = 2r doubles every step: from r0 = 1 the orbit crosses a
     threshold E at step ceil(log2 E), so the step at which Diverged
     fires reveals which escape threshold was actually used. *)
  let net = single 1 in
  let doubler = Rate_adjust.make ~name:"doubler" (fun ~r ~b:_ ~d:_ -> r) in
  let c = Controller.homogeneous ~config:Feedback.individual_fifo ~adjuster:doubler ~n:1 in
  let diverged_at = function
    | Controller.Diverged { at_step } -> at_step
    | _ -> Alcotest.fail "expected divergence"
  in
  let sync_custom = diverged_at (Controller.run ~escape:100. c ~net ~r0:[| 1. |]) in
  let sync_default = diverged_at (Controller.run c ~net ~r0:[| 1. |]) in
  Alcotest.(check int) "sync: 2^7 = 128 > 100" 7 sync_custom;
  Alcotest.(check int) "sync: default threshold is 1e12" 40 sync_default;
  (* The async runner must thread the same parameter instead of its old
     hardcoded 1e12; with p = 1 every mask is all-true, so its orbit is
     the synchronous one. *)
  let async_custom =
    diverged_at
      (Controller.run_async ~p:1. ~escape:100. ~rng:(Rng.create 7) c ~net ~r0:[| 1. |])
  in
  let async_default =
    diverged_at (Controller.run_async ~p:1. ~rng:(Rng.create 7) c ~net ~r0:[| 1. |])
  in
  Alcotest.(check int) "async honors custom escape" 7 async_custom;
  Alcotest.(check int) "async default matches run's" 40 async_default

let test_nan_adjuster_is_divergence () =
  (* Regression: Rate_adjust.eval raises Failure on a NaN adjustment, and
     run used to let that exception kill the whole sweep.  It must now
     degrade to Diverged at the offending step, in both runners. *)
  let net = single 1 in
  let poison =
    Rate_adjust.make ~name:"nan-after-3" (fun ~r ~b:_ ~d:_ ->
        if r > 0.3 then Float.nan else 0.2)
  in
  let c = Controller.homogeneous ~config:Feedback.individual_fifo ~adjuster:poison ~n:1 in
  (match Controller.run c ~net ~r0:[| 0. |] with
  | Controller.Diverged { at_step } -> check_true "past the clean steps" (at_step > 0)
  | _ -> Alcotest.fail "NaN-producing adjuster must report Diverged");
  match Controller.run_async ~p:1. ~rng:(Rng.create 5) c ~net ~r0:[| 0. |] with
  | Controller.Diverged _ -> ()
  | _ -> Alcotest.fail "async runner must also report Diverged"

let test_non_finite_r0_is_divergence_at_zero () =
  (* A non-finite start must not crash inside the queueing layer's rate
     validation: it is divergence before the first step. *)
  let net = single 2 in
  let c = Controller.homogeneous ~config:Feedback.individual_fifo ~adjuster:additive ~n:2 in
  List.iter
    (fun r0 ->
      (match Controller.run c ~net ~r0 with
      | Controller.Diverged { at_step } -> Alcotest.(check int) "at step 0" 0 at_step
      | _ -> Alcotest.fail "bad r0 must report Diverged");
      match Controller.run_async ~rng:(Rng.create 3) c ~net ~r0 with
      | Controller.Diverged { at_step } -> Alcotest.(check int) "async at step 0" 0 at_step
      | _ -> Alcotest.fail "async bad r0 must report Diverged")
    [ [| Float.nan; 0.1 |]; [| 0.1; Float.infinity |] ]

let test_trace_csv () =
  let traj = [| [| 0.1; 0.2 |]; [| 0.3; 0.4 |] |] in
  let csv = Trace.csv_of_trajectory ~names:[| "a"; "b" |] traj in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header" "step,a,b" (List.hd lines);
  check_true "roundtrip precision"
    (match String.split_on_char ',' (List.nth lines 1) with
     | [ "0"; a; b ] -> float_of_string a = 0.1 && float_of_string b = 0.2
     | _ -> false);
  (* Default names and empty trajectory. *)
  Alcotest.(check string) "empty" "step\n" (Trace.csv_of_trajectory [||]);
  check_true "default names"
    (String.length (Trace.csv_of_trajectory [| [| 1. |] |]) > 0);
  check_true "ragged rejected"
    (try ignore (Trace.csv_of_trajectory [| [| 1. |]; [| 1.; 2. |] |]); false
     with Invalid_argument _ -> true);
  (* The dimension-mismatch errors must say which constraint broke, so a
     caller wiring up column names can tell the two apart. *)
  Alcotest.check_raises "names length mismatch message"
    (Invalid_argument "Trace.csv_of_trajectory: names length mismatch")
    (fun () ->
      ignore (Trace.csv_of_trajectory ~names:[| "only" |] [| [| 1.; 2. |] |]));
  Alcotest.check_raises "ragged trajectory message"
    (Invalid_argument "Trace.csv_of_trajectory: ragged trajectory")
    (fun () -> ignore (Trace.csv_of_trajectory [| [| 1. |]; [| 1.; 2. |] |]))

let test_trace_series_and_file () =
  let csv = Trace.csv_of_series ~name:"q" [| 1.; 2. |] in
  check_true "series header" (String.length csv > 0);
  let path = Filename.temp_file "ffc_trace" ".csv" in
  Trace.write_file ~path csv;
  let read = In_channel.with_open_text path In_channel.input_all in
  Alcotest.(check string) "file roundtrip" csv read;
  Sys.remove path

let test_r0_not_aliased () =
  (* trajectory and run must store private copies of r0: mutating the
     caller's array after the call must not corrupt the results. *)
  let net = single 2 in
  let c = Controller.homogeneous ~config:Feedback.individual_fifo ~adjuster:additive ~n:2 in
  let r0 = [| 0.1; 0.3 |] in
  let traj = Controller.trajectory c ~net ~r0 ~steps:2 in
  r0.(0) <- 99.;
  check_vec "recorded start survives caller mutation" [| 0.1; 0.3 |] traj.(0);
  let r0 = [| 0.1; 0.3 |] in
  (match Controller.run ~max_steps:0 c ~net ~r0 with
  | Controller.No_convergence { last } ->
    r0.(1) <- 42.;
    check_vec "run result survives caller mutation" [| 0.1; 0.3 |] last
  | _ -> Alcotest.fail "max_steps 0 cannot converge")

let test_fused_evaluate_matches_separate () =
  (* Feedback.evaluate (one pass over the gateways) must return exactly
     the vectors the separate signals and delays entry points compute,
     including the zero-rate sojourn limit. *)
  let net = Topologies.parking_lot ~hops:3 ~latency:0.1 () in
  let n = Network.num_connections net in
  let rates =
    Array.init n (fun i -> if i = 1 then 0. else 0.02 +. (0.03 *. float_of_int i))
  in
  List.iter
    (fun (name, config) ->
      let b, d = Feedback.evaluate config ~net ~rates in
      check_vec ~tol:0. (name ^ ": fused signals exact")
        (Feedback.signals config ~net ~rates)
        b;
      check_vec ~tol:0. (name ^ ": fused delays exact")
        (Feedback.delays config ~net ~rates)
        d)
    [
      ("aggregate", Feedback.aggregate_fifo);
      ("individual+fifo", Feedback.individual_fifo);
      ("individual+fair-share", Feedback.individual_fair_share);
    ]

let prop_individual_fair_from_random_starts =
  (* Theorem 3 as a property: every converged run of TSI individual
     feedback lands on the same fair point regardless of start. *)
  prop "individual feedback is guaranteed fair from any start" ~count:25
    QCheck2.Gen.(array_size (pure 3) (float_range 0. 1.2))
    (fun r0 ->
      let net = single 3 in
      let c =
        Controller.homogeneous ~config:Feedback.individual_fair_share ~adjuster:additive
          ~n:3
      in
      match Controller.run c ~net ~r0 with
      | Controller.Converged { steady; _ } ->
        Vec.approx_equal ~tol:1e-5 steady [| 1. /. 6.; 1. /. 6.; 1. /. 6. |]
      | _ -> false)

let suites =
  [
    ( "core.controller",
      [
        case "single connection converges" test_single_connection_converges;
        case "aggregate preserves differences" test_aggregate_preserves_differences;
        case "individual erases differences" test_individual_erases_differences;
        case "discipline-independent steady state" test_individual_discipline_independent;
        case "recovery from overload" test_overload_start_recovers;
        case "truncation at zero" test_zero_truncation;
        case "trajectory shape" test_trajectory_shape;
        case "unstable aggregate (N=30)" test_unstable_aggregate_does_not_converge;
        case "stable aggregate (N=10)" test_stable_aggregate_converges;
        case "cycle detection" test_cycle_detection;
        case "heterogeneous starvation" test_heterogeneous_adjusters;
        case "steady-state predicate" test_steady_state_predicate;
        case "size validation" test_mismatched_sizes_rejected;
        case "feedback weight validation" test_feedback_weights_validated;
        case "multi-gateway bottleneck" test_multi_gateway_bottleneck;
        case "subset updates" test_step_subset;
        case "async run reaches fair point" test_run_async_reaches_fair_point;
        case "escape threaded through run and run_async" test_escape_threaded_sync_and_async;
        case "NaN adjuster degrades to Diverged" test_nan_adjuster_is_divergence;
        case "non-finite r0 diverges at step 0" test_non_finite_r0_is_divergence_at_zero;
        case "trace CSV" test_trace_csv;
        case "trace series and file" test_trace_series_and_file;
        case "r0 not aliased into results" test_r0_not_aliased;
        case "fused evaluate = signals + delays" test_fused_evaluate_matches_separate;
        prop_individual_fair_from_random_starts;
      ] );
  ]
