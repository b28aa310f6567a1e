(* Single alcotest runner aggregating every module's suites.  Each
   [Test_*] module exports [suites : (string * unit Alcotest.test_case list) list]. *)

let () =
  Alcotest.run "ffc"
    (List.concat
       [
         Test_rng.suites;
         Test_pool.suites;
         Test_vec.suites;
         Test_mat.suites;
         Test_eigen.suites;
         Test_rootfind.suites;
         Test_stats.suites;
         Test_dynamics.suites;
         Test_ascii_plot.suites;
         Test_queueing.suites;
         Test_topology.suites;
         Test_desim.suites;
         Test_signal.suites;
         Test_congestion.suites;
         Test_rate_adjust.suites;
         Test_controller.suites;
         Test_feedback.suites;
         Test_steady_state.suites;
         Test_jacobian.suites;
         Test_sparse.suites;
         Test_fairness.suites;
         Test_robustness.suites;
         Test_faults.suites;
         Test_analysis.suites;
         Test_weighted_fs.suites;
         Test_closedloop.suites;
         Test_game.suites;
         Test_window.suites;
         Test_transient.suites;
         Test_exp_common.suites;
         Test_experiments.suites;
         Test_obs.suites;
         Test_cache.suites;
         Test_service.suites;
         Test_span.suites;
       ])
