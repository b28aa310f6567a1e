open Ffc_numerics
open Ffc_topology
open Ffc_core

type row = {
  n : int;
  unilateral : float;
  predicted_eigenvalue : float;
  measured_eigenvalue : float;
  converged : bool;
}

let compute ?(eta = 0.1) ?(ns = [ 2; 5; 10; 15; 19; 21; 25; 30 ]) ?jobs () =
  (* Each N is an independent, fully deterministic task (no RNG), so the
     sweep fans out over the pool and the rows are byte-identical at any
     jobs count. *)
  Pool.parallel_map
    ~jobs:(Pool.effective_jobs ?jobs ())
    (fun n ->
      let net = Topologies.single ~mu:1. ~n () in
      let adjuster = Rate_adjust.additive ~eta ~beta:0.5 in
      let c = Controller.homogeneous ~config:Feedback.aggregate_fifo ~adjuster ~n in
      let fair = Array.make n (0.5 /. float_of_int n) in
      let df = Jacobian.of_controller_sparse c ~net ~at:fair in
      let measured =
        Array.fold_left
          (fun acc z -> if z.Complex.re < acc then z.Complex.re else acc)
          1.
          (Jacobian.eigenvalues_sparse df)
      in
      (* Perturb the fair point with a component along the all-ones
         direction — the mode carrying the 1 - eta*N eigenvalue.  (A
         perturbation that keeps the sum fixed lies in the steady-state
         manifold and tests nothing.) *)
      let r0 =
        Array.mapi
          (fun i r -> r *. (1.02 +. (0.01 *. float_of_int i /. float_of_int n)))
          fair
      in
      let converged =
        match Controller.run ~max_steps:8_000 c ~net ~r0 with
        | Controller.Converged _ -> true
        | _ -> false
      in
      {
        n;
        unilateral = 1. -. eta;
        predicted_eigenvalue = 1. -. (eta *. float_of_int n);
        measured_eigenvalue = measured;
        converged;
      })
    (Array.of_list ns)
  |> Array.to_list

let run () =
  let eta = 0.1 in
  let rows = compute ~eta () in
  let header =
    [ "N"; "DF_ii"; "1 - eta*N (paper)"; "min eigenvalue (measured)"; "converges" ]
  in
  let body =
    List.map
      (fun r ->
        [
          string_of_int r.n;
          Exp_common.fnum r.unilateral;
          Exp_common.fnum r.predicted_eigenvalue;
          Exp_common.fnum r.measured_eigenvalue;
          Exp_common.fbool r.converged;
        ])
      rows
  in
  Exp_common.table ~header ~rows:body
  ^ Printf.sprintf
      "\n\
       eta = %g: every N is unilaterally stable (|DF_ii| = %g < 1), yet\n\
       systemic stability is lost once |1 - eta*N| > 1, i.e. N > %g —\n\
       matching the convergence column.\n"
      eta (1. -. eta) (2. /. eta)

let experiment =
  {
    Exp_common.id = "E5";
    title = "Unilateral vs systemic stability of aggregate feedback";
    paper_ref = "\xc2\xa73.3 instability example";
    run;
  }
