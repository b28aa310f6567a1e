open Ffc_numerics
open Ffc_topology
open Ffc_core

type summary = {
  trials : int;
  fs_converged : int;
  fs_triangular : int;
  fs_unilateral_eq_systemic : int;
  fs_diag_eigen_match : int;
  fifo_converged : int;
  fifo_triangular : int;
}

(* Per-trial verdicts, folded into the summary after the fan-out. *)
type trial = {
  fs : (bool * bool * bool) option;
      (* converged: (triangular, unilateral = systemic, diag = eigenvalues) *)
  fifo : bool option; (* converged: triangular *)
}

let compute ?(trials = 10) ?(seed = 23) ?jobs () =
  (* Per-trial RNG streams split off one SplitMix64 base before the fan
     out: trial k's draws depend only on (seed, k), so the sweep is
     deterministic at any [jobs]. *)
  let base = Rng.create seed in
  let rngs = Array.init trials (fun _ -> Rng.split base) in
  let run_trial k =
    let rng = rngs.(k) in
    let n = 2 + Rng.int rng 3 in
    let net = Topologies.single ~mu:1. ~n () in
    (* Distinct betas spread over (0.2, 0.8) give distinct steady rates. *)
    let adjusters =
      Array.init n (fun i ->
          let beta = 0.2 +. (0.6 *. (float_of_int i +. 0.5) /. float_of_int n) in
          Rate_adjust.additive ~eta:0.1 ~beta)
    in
    let r0 = Scenario.random_start ~rng ~net ~lo:0.01 ~hi:0.2 in
    let analyze config =
      let c = Controller.create ~config ~adjusters in
      match Controller.run ~max_steps:40_000 c ~net ~r0 with
      | Controller.Converged { steady; _ } ->
        let df = Jacobian.of_controller_sparse ~mode:Jacobian.Forward c ~net ~at:steady in
        Some (steady, df)
      | _ -> None
    in
    let fs =
      match analyze Feedback.individual_fair_share with
      | Some (steady, df) ->
        let tri = Jacobian.triangular_in_rate_order ~tol:1e-4 df ~rates:steady in
        let uni = Jacobian.unilaterally_stable df in
        let sys = Jacobian.systemically_stable df in
        let diag_match =
          (* Eigenvalues of a triangular matrix are its diagonal.  The
             dense QR path is forced here on purpose: the structure-aware
             default would read the diagonal and make this check
             vacuous. *)
          let ev =
            Array.map
              (fun z -> z.Complex.re)
              (Eigen.eigenvalues_dense (Mat.Sparse.to_dense df))
          in
          let dg = Jacobian.diagonal df in
          Array.sort Float.compare ev;
          Array.sort Float.compare dg;
          Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-3) ev dg
        in
        Some (tri, uni = sys, diag_match)
      | None -> None
    in
    let fifo =
      match analyze Feedback.individual_fifo with
      | Some (steady, df) ->
        Some (Jacobian.triangular_in_rate_order ~tol:1e-4 df ~rates:steady)
      | None -> None
    in
    { fs; fifo }
  in
  let results =
    Pool.parallel_init ~jobs:(Pool.effective_jobs ?jobs ()) trials run_trial
  in
  Array.fold_left
    (fun s t ->
      let s =
        match t.fs with
        | Some (tri, uni_eq_sys, diag_match) ->
          {
            s with
            fs_converged = s.fs_converged + 1;
            fs_triangular = (s.fs_triangular + if tri then 1 else 0);
            fs_unilateral_eq_systemic =
              (s.fs_unilateral_eq_systemic + if uni_eq_sys then 1 else 0);
            fs_diag_eigen_match = (s.fs_diag_eigen_match + if diag_match then 1 else 0);
          }
        | None -> s
      in
      match t.fifo with
      | Some tri ->
        {
          s with
          fifo_converged = s.fifo_converged + 1;
          fifo_triangular = (s.fifo_triangular + if tri then 1 else 0);
        }
      | None -> s)
    {
      trials;
      fs_converged = 0;
      fs_triangular = 0;
      fs_unilateral_eq_systemic = 0;
      fs_diag_eigen_match = 0;
      fifo_converged = 0;
      fifo_triangular = 0;
    }
    results

let run () =
  let s = compute () in
  let header = [ "metric"; "FS"; "FIFO" ] in
  let rows =
    [
      [ "converged runs"; string_of_int s.fs_converged; string_of_int s.fifo_converged ];
      [ "DF triangular in rate order"; string_of_int s.fs_triangular;
        string_of_int s.fifo_triangular ];
      [ "unilateral = systemic verdict"; string_of_int s.fs_unilateral_eq_systemic; "-" ];
      [ "eigenvalues = diagonal"; string_of_int s.fs_diag_eigen_match; "-" ];
    ]
  in
  Printf.sprintf "%d random heterogeneous populations at a single gateway:\n\n" s.trials
  ^ Exp_common.table ~header ~rows
  ^ "\nExpected per Theorem 4: under FS, DF is always triangular, its\n\
     eigenvalues are its diagonal, and the unilateral verdict decides\n\
     systemic stability; FIFO has no such structure.\n"

let experiment =
  {
    Exp_common.id = "E7";
    title = "Fair Share makes DF triangular (Theorem 4)";
    paper_ref = "Theorem 4, \xc2\xa73.3";
    run;
  }
