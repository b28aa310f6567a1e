open Ffc_numerics
open Ffc_queueing
open Test_util

(* ------------------------------------------------------------------ *)
(* M/M/1                                                               *)
(* ------------------------------------------------------------------ *)

let test_g () =
  check_float "g(0)" 0. (Mm1.g 0.);
  check_float "g(1/2)" 1. (Mm1.g 0.5);
  check_float ~tol:1e-12 "g(3/4)" 3. (Mm1.g 0.75);
  check_true "g saturates" (Mm1.g 1. = Float.infinity);
  check_true "g beyond saturation" (Mm1.g 2. = Float.infinity)

let test_g_inv () =
  check_float "g_inv(0)" 0. (Mm1.g_inv 0.);
  check_float "g_inv(1)" 0.5 (Mm1.g_inv 1.);
  check_float "g_inv(inf)" 1. (Mm1.g_inv Float.infinity);
  (* Round trip. *)
  check_float ~tol:1e-12 "g_inv (g x) = x" 0.3 (Mm1.g_inv (Mm1.g 0.3))

let test_g_negative () =
  Alcotest.check_raises "negative load" (Invalid_argument "Mm1.g: negative load")
    (fun () -> ignore (Mm1.g (-0.1)))

let test_mm1_derived () =
  check_float ~tol:1e-12 "number in system" 1. (Mm1.number_in_system ~mu:2. ~rate:1.);
  check_float ~tol:1e-12 "sojourn" 1. (Mm1.sojourn_time ~mu:2. ~rate:1.);
  check_float ~tol:1e-12 "waiting" 0.5 (Mm1.queueing_delay ~mu:2. ~rate:1.);
  check_true "saturated sojourn" (Mm1.sojourn_time ~mu:1. ~rate:1. = Float.infinity);
  check_float "utilization" 0.5 (Mm1.utilization ~mu:2. ~rate:1.)

(* ------------------------------------------------------------------ *)
(* FIFO                                                                *)
(* ------------------------------------------------------------------ *)

let test_fifo_basic () =
  (* mu=4, rates 1 and 2: rho_tot = 3/4, Q_i = rho_i / (1 - 3/4). *)
  let q = Fifo.queue_lengths ~mu:4. [| 1.; 2. |] in
  check_vec ~tol:1e-12 "fifo queues" [| 1.; 2. |] q

let test_fifo_single_matches_mm1 () =
  let q = Fifo.queue_lengths ~mu:2. [| 1. |] in
  check_float ~tol:1e-12 "single conn = M/M/1" (Mm1.number_in_system ~mu:2. ~rate:1.) q.(0)

let test_fifo_overload () =
  let q = Fifo.queue_lengths ~mu:1. [| 0.7; 0.5; 0. |] in
  check_true "positive-rate queues blow up"
    (q.(0) = Float.infinity && q.(1) = Float.infinity);
  check_float "zero-rate queue stays 0" 0. q.(2)

let test_fifo_total () =
  check_float ~tol:1e-12 "total queue" (Mm1.g 0.75) (Fifo.total_queue ~mu:4. [| 1.; 2. |])

let test_fifo_sojourn_uniform () =
  check_float ~tol:1e-12 "sojourn 1/(mu - sum)" 1. (Fifo.sojourn_time ~mu:4. [| 1.; 2. |])

let test_fifo_validation () =
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Fifo: rates must be finite and non-negative") (fun () ->
      ignore (Fifo.queue_lengths ~mu:1. [| -1. |]));
  Alcotest.check_raises "bad mu" (Invalid_argument "Fifo: mu must be positive")
    (fun () -> ignore (Fifo.queue_lengths ~mu:0. [| 1. |]))

(* ------------------------------------------------------------------ *)
(* Preemptive priority                                                 *)
(* ------------------------------------------------------------------ *)

let test_priority_cumulative () =
  let cum = Priority.cumulative_in_system ~mu:4. [| 1.; 1. |] in
  check_vec ~tol:1e-12 "cumulative occupancy" [| Mm1.g 0.25; Mm1.g 0.5 |] cum

let test_priority_per_class () =
  let per = Priority.per_class_in_system ~mu:4. [| 1.; 1. |] in
  check_float ~tol:1e-12 "high class unaffected by low" (Mm1.g 0.25) per.(0);
  check_float ~tol:1e-12 "low class gets the rest" (Mm1.g 0.5 -. Mm1.g 0.25) per.(1)

let test_priority_high_class_isolated () =
  (* The high class sees an M/M/1 regardless of low-class overload. *)
  let per = Priority.per_class_in_system ~mu:2. [| 1.; 10. |] in
  check_float ~tol:1e-12 "high class" (Mm1.g 0.5) per.(0);
  check_true "low class saturates" (per.(1) = Float.infinity)

let test_priority_saturated_zero_class () =
  let per = Priority.per_class_in_system ~mu:1. [| 2.; 0. |] in
  check_true "overloaded class infinite" (per.(0) = Float.infinity);
  check_float "zero-rate class empty" 0. per.(1)

let test_priority_total () =
  check_float ~tol:1e-12 "total matches g" (Mm1.g 0.5)
    (Priority.total_in_system ~mu:4. [| 1.; 1. |])

(* ------------------------------------------------------------------ *)
(* Fair Share                                                          *)
(* ------------------------------------------------------------------ *)

let test_fs_table1_decomposition () =
  (* Paper Table 1 with four connections, increasing rates. *)
  let rates = [| 1.; 2.; 4.; 7. |] in
  let d = Fair_share.decomposition rates in
  let expected =
    [|
      [| 1.; 0.; 0.; 0. |];
      [| 1.; 1.; 0.; 0. |];
      [| 1.; 1.; 2.; 0. |];
      [| 1.; 1.; 2.; 3. |];
    |]
  in
  Array.iteri (fun i row -> check_vec (Printf.sprintf "row %d" i) expected.(i) row) d;
  (* Row sums recover the rates. *)
  Array.iteri
    (fun i row -> check_float (Printf.sprintf "row sum %d" i) rates.(i) (Vec.sum row))
    d

let test_fs_decomposition_unsorted_input () =
  let d = Fair_share.decomposition [| 7.; 1. |] in
  check_vec "fast connection row" [| 1.; 6. |] d.(0);
  check_vec "slow connection row" [| 1.; 0. |] d.(1)

let test_fs_level_rates () =
  check_vec "level increments" [| 1.; 1.; 2.; 3. |] (Fair_share.level_rates [| 1.; 2.; 4.; 7. |]);
  check_vec "tied rates give zero increments" [| 2.; 0. |] (Fair_share.level_rates [| 2.; 2. |])

let test_fs_fair_cumulative_load () =
  let rates = [| 1.; 2.; 4. |] in
  check_float "T for smallest" 3. (Fair_share.fair_cumulative_load rates 0);
  check_float "T for middle" 5. (Fair_share.fair_cumulative_load rates 1);
  check_float "T for largest" 7. (Fair_share.fair_cumulative_load rates 2)

let test_fs_recursion_two_conn () =
  (* mu=4, rates (1,2): T_1 = 2, T_2 = 3.  Q_1 = g(1/2)/2 = 0.5,
     Q_2 = g(3/4) - Q_1 = 3 - 0.5 = 2.5. *)
  let q = Fair_share.queue_lengths ~mu:4. [| 1.; 2. |] in
  check_vec ~tol:1e-12 "fs queues" [| 0.5; 2.5 |] q

let test_fs_unsorted_input_order_preserved () =
  let q = Fair_share.queue_lengths ~mu:4. [| 2.; 1. |] in
  check_vec ~tol:1e-12 "order preserved" [| 2.5; 0.5 |] q

let test_fs_equal_rates_symmetric () =
  let q = Fair_share.queue_lengths ~mu:3. [| 1.; 1. |] in
  check_float ~tol:1e-12 "tied rates equal queues" q.(0) q.(1);
  check_float ~tol:1e-12 "conserves total" (Mm1.g (2. /. 3.)) (q.(0) +. q.(1))

let test_fs_single_matches_mm1 () =
  let q = Fair_share.queue_lengths ~mu:2. [| 1. |] in
  check_float ~tol:1e-12 "single conn = M/M/1" (Mm1.g 0.5) q.(0)

let test_fs_conservation () =
  let rates = [| 0.3; 0.9; 0.1; 0.5 |] in
  let q = Fair_share.queue_lengths ~mu:2. rates in
  check_float ~tol:1e-9 "sum Q = g(rho)" (Mm1.g (Vec.sum rates /. 2.)) (Vec.sum q)

let test_fs_isolation_under_overload () =
  (* Total load is 3x capacity, but the slow connection's fair load
     T = 0.1*3 = 0.3 < mu = 1: its queue must stay finite.  This is the
     robustness mechanism of Theorem 5. *)
  let q = Fair_share.queue_lengths ~mu:1. [| 0.1; 1.4; 1.5 |] in
  check_true "slow connection isolated" (Float.is_finite q.(0));
  check_true "overloading connections saturate"
    (q.(1) = Float.infinity && q.(2) = Float.infinity);
  (* The slow connection sees exactly an M/M/1 at its fair load. *)
  check_float ~tol:1e-12 "slow queue = g(0.3)/3 limit" (Mm1.g 0.3 /. 3.) q.(0)

let test_fs_zero_rate () =
  let q = Fair_share.queue_lengths ~mu:1. [| 0.; 0.5 |] in
  check_float "zero rate empty queue" 0. q.(0);
  check_true "other queue finite positive" (q.(1) > 0. && Float.is_finite q.(1))

let test_fs_sojourn_zero_rate_regression () =
  (* The single-probe fast path for zero-rate limiting sojourns must
     reproduce the per-connection probe it replaced: re-run the O(N^2)
     reference here and compare. *)
  let reference ~mu rates =
    let q = Fair_share.queue_lengths ~mu rates in
    Array.mapi
      (fun i r ->
        if r > 0. then q.(i) /. r
        else begin
          let probe = 1e-9 *. mu in
          let rates' = Array.copy rates in
          rates'.(i) <- probe;
          let q' = Fair_share.queue_lengths ~mu rates' in
          q'.(i) /. probe
        end)
      rates
  in
  List.iter
    (fun (mu, rates) ->
      check_vec ~tol:1e-12
        (Printf.sprintf "mu=%g n=%d" mu (Array.length rates))
        (reference ~mu rates)
        (Service.sojourn_times Service.fair_share ~mu rates))
    [
      (1., [| 0.; 0.5 |]);
      (2., [| 0.; 0.3; 0.; 0.9; 0. |]);
      (1., [| 0.; 0.; 0.; 0. |]);
      (3., [| 0.4; 0.2; 1.1 |]);
      (5., [| 0.; 1.; 2.; 0.; 0.5; 0.5; 0.; 0.1 |]);
    ];
  (* All zero-rate connections share one limiting sojourn. *)
  let w = Service.sojourn_times Service.fair_share ~mu:2. [| 0.; 0.7; 0. |] in
  check_float ~tol:1e-12 "zero-rate sojourns equal" w.(0) w.(2);
  check_true "limiting sojourn positive" (w.(0) > 0. && Float.is_finite w.(0))

let test_fs_vs_fifo_redistribution () =
  (* FS protects the slow connection: its queue under FS is no larger than
     under FIFO; the fast connection pays. *)
  let rates = [| 0.2; 1.3 |] and mu = 2. in
  let qfs = Fair_share.queue_lengths ~mu rates in
  let qfifo = Fifo.queue_lengths ~mu rates in
  check_true "slow favored by FS" (qfs.(0) < qfifo.(0));
  check_true "fast penalized by FS" (qfs.(1) > qfifo.(1))

let test_fs_theorem5_bound () =
  (* Q_i(r) <= r_i / (mu - N r_i) — the Theorem 5 robustness criterion,
     spot-checked on a concrete configuration. *)
  let rates = [| 0.2; 0.5; 0.9 |] and mu = 3. in
  let n = float_of_int (Array.length rates) in
  let q = Fair_share.queue_lengths ~mu rates in
  Array.iteri
    (fun i qi ->
      let bound = rates.(i) /. (mu -. (n *. rates.(i))) in
      check_true (Printf.sprintf "bound holds for %d" i) (qi <= bound +. 1e-9))
    q

let test_fifo_violates_theorem5_bound () =
  (* A slow connection squeezed by a fast one violates the criterion under
     FIFO. *)
  let rates = [| 0.05; 2.5 |] and mu = 3. in
  let q = Fifo.queue_lengths ~mu rates in
  let bound = rates.(0) /. (mu -. (2. *. rates.(0))) in
  check_true "fifo breaks the bound" (q.(0) > bound)

(* ------------------------------------------------------------------ *)
(* Service abstraction + feasibility checks                            *)
(* ------------------------------------------------------------------ *)

let test_processor_sharing_equals_fifo () =
  (* M/M/1-PS mean occupancies coincide with FIFO's — the model cannot
     distinguish the two disciplines. *)
  let rates = [| 0.2; 0.7; 0.4 |] and mu = 2. in
  check_vec ~tol:1e-12 "PS = FIFO queue lengths"
    (Service.queue_lengths Service.fifo ~mu rates)
    (Service.queue_lengths Service.processor_sharing ~mu rates);
  Alcotest.(check string) "its own name" "processor-sharing"
    (Service.name Service.processor_sharing)

let test_service_dispatch () =
  Alcotest.(check string) "fifo name" "fifo" (Service.name Service.fifo);
  Alcotest.(check string) "fs name" "fair-share" (Service.name Service.fair_share);
  let q = Service.queue_lengths Service.fifo ~mu:4. [| 1.; 2. |] in
  check_vec ~tol:1e-12 "dispatch matches direct call" (Fifo.queue_lengths ~mu:4. [| 1.; 2. |]) q

let test_service_sojourn_zero_rate () =
  let w = Service.sojourn_times Service.fifo ~mu:2. [| 0.; 1. |] in
  (* FIFO sojourn is rate independent: 1/(mu - sum). *)
  check_float ~tol:1e-6 "zero-rate probe limit" 1. w.(0);
  check_float ~tol:1e-9 "positive rate" 1. w.(1)

let feasibility_all svc rates mu =
  List.iter
    (fun (name, ok) -> check_true (Service.name svc ^ " " ^ name) ok)
    (Feasibility.all_ok svc ~mu rates)

let test_feasibility_fifo () = feasibility_all Service.fifo [| 0.3; 0.9; 0.1; 0.5 |] 2.
let test_feasibility_fs () = feasibility_all Service.fair_share [| 0.3; 0.9; 0.1; 0.5 |] 2.

let test_feasibility_rejects_bogus () =
  (* A "discipline" that dumps all queueing on the first connection is not
     symmetric. *)
  let bogus =
    Service.make ~name:"bogus" (fun ~mu rates ->
        let total = Mm1.g (Vec.sum rates /. mu) in
        Array.mapi (fun i _ -> if i = 0 then total else 0.) rates)
  in
  check_false "asymmetry detected"
    (Feasibility.symmetric_ok bogus ~mu:2. [| 0.3; 0.9; 0.1 |])

let test_feasibility_rejects_nonconserving () =
  let lazy_server = Service.make ~name:"lazy" (fun ~mu:_ rates -> Array.map (fun _ -> 0.) rates) in
  check_false "non-conservation detected"
    (Feasibility.conservation_ok lazy_server ~mu:2. [| 0.5; 0.5 |])

(* ------------------------------------------------------------------ *)
(* Delay                                                               *)
(* ------------------------------------------------------------------ *)

let test_delay_roundtrip () =
  let hop = { Delay.mu = 4.; latency = 0.25; discipline = Service.fifo } in
  let rates = [| 1.; 2. |] in
  (* FIFO sojourn = 1/(4-3) = 1; two hops: 2*(0.25 + 1) = 2.5. *)
  let d = Delay.roundtrip [ (hop, rates, 0); (hop, rates, 0) ] in
  check_float ~tol:1e-9 "two-hop roundtrip" 2.5 d

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_config =
  QCheck2.Gen.(
    pair
      (array_size (int_range 1 8) (float_range 0. 0.8))
      (float_range 0.5 10.))

let subcritical rates mu = Vec.sum rates < 0.95 *. mu

let prop_conservation svc =
  prop
    (Printf.sprintf "%s conserves work" (Service.name svc))
    gen_config
    (fun (rates, mu) ->
      (not (subcritical rates mu)) || Feasibility.conservation_ok ~tol:1e-6 svc ~mu rates)

let prop_symmetry svc =
  prop
    (Printf.sprintf "%s is symmetric" (Service.name svc))
    gen_config
    (fun (rates, mu) ->
      (not (subcritical rates mu)) || Feasibility.symmetric_ok ~tol:1e-6 svc ~mu rates)

let prop_partial_sums svc =
  prop
    (Printf.sprintf "%s satisfies partial-sum bounds" (Service.name svc))
    gen_config
    (fun (rates, mu) ->
      (not (subcritical rates mu)) || Feasibility.partial_sums_ok ~tol:1e-6 svc ~mu rates)

let prop_order svc =
  prop
    (Printf.sprintf "%s queue order follows rate order" (Service.name svc))
    gen_config
    (fun (rates, mu) ->
      (not (subcritical rates mu)) || Feasibility.order_consistent_ok ~tol:1e-6 svc ~mu rates)

let prop_fs_theorem5 =
  prop "fair share satisfies the Theorem 5 bound" gen_config (fun (rates, mu) ->
      let n = float_of_int (Array.length rates) in
      let q = Fair_share.queue_lengths ~mu rates in
      let ok = ref true in
      Array.iteri
        (fun i qi ->
          let denom = mu -. (n *. rates.(i)) in
          if denom > 0. && Float.is_finite qi then begin
            let bound = rates.(i) /. denom in
            if qi > bound +. 1e-6 then ok := false
          end)
        q;
      !ok)

let prop_fs_triangularity =
  (* Locality: Q_i depends only on rates <= r_i.  Raising a faster
     connection's rate must leave slower queues unchanged. *)
  prop "fair share queues are local (triangular)" gen_config (fun (rates, mu) ->
      let n = Array.length rates in
      if n < 2 then true
      else begin
        let q = Fair_share.queue_lengths ~mu rates in
        let imax = Vec.argmax rates in
        let bumped = Array.copy rates in
        bumped.(imax) <- bumped.(imax) +. 1.;
        let q' = Fair_share.queue_lengths ~mu bumped in
        let ok = ref true in
        Array.iteri
          (fun i qi ->
            if i <> imax && rates.(i) < rates.(imax) && Float.is_finite qi then
              if Float.abs (q'.(i) -. qi) > 1e-9 *. (1. +. qi) then ok := false)
          q;
        !ok
      end)

let prop_fs_zero_limit_closed_form =
  (* The closed-form zero-rate limit is the probe's value bit for bit
     whenever it answers, and it declines exactly when some positive
     rate is at or below the probe (where the sort decides the probe's
     level).  Rates straddle the probe, saturate the gateway, and
     include -0.; the smallest subnormal μ makes the probe itself 0. *)
  prop "FS closed-form zero limit == probe" ~count:500
    QCheck2.Gen.(triple (int_range 1 12) (int_range 0 3) (int_range 0 0x3FFFFFFF))
    (fun (n, mu_kind, seed) ->
      let rng = Rng.create seed in
      let mu = match mu_kind with 0 -> 1. | 1 -> 5e-324 | _ -> Rng.range rng 0.1 10. in
      let probe = 1e-9 *. mu in
      let rates =
        Array.init n (fun _ ->
            match Rng.int rng 7 with
            | 0 -> 0.
            | 1 -> -0.
            | 2 -> probe
            | 3 -> probe *. Rng.uniform rng
            | 4 -> probe *. (1. +. Rng.uniform rng)
            | 5 -> mu *. Rng.range rng 0.3 1.5
            | _ -> mu *. Rng.uniform rng /. float_of_int n)
      in
      rates.(Rng.int rng n) <- 0.;
      let i0 = ref (-1) in
      Array.iteri (fun i r -> if !i0 < 0 && r = 0. then i0 := i) rates;
      let probed = Array.copy rates in
      probed.(!i0) <- probe;
      let by_probe = (Fair_share.queue_lengths ~mu probed).(!i0) /. probe in
      match Fair_share.zero_rate_sojourn ~mu rates with
      | Some w -> Int64.equal (Int64.bits_of_float w) (Int64.bits_of_float by_probe)
      | None -> Array.exists (fun r -> r > 0. && r <= probe) rates)

let suites =
  [
    ( "queueing.mm1",
      [
        case "g" test_g;
        case "g_inv" test_g_inv;
        case "g rejects negative" test_g_negative;
        case "derived quantities" test_mm1_derived;
      ] );
    ( "queueing.fifo",
      [
        case "basic queues" test_fifo_basic;
        case "single connection = M/M/1" test_fifo_single_matches_mm1;
        case "overload" test_fifo_overload;
        case "total queue" test_fifo_total;
        case "uniform sojourn" test_fifo_sojourn_uniform;
        case "input validation" test_fifo_validation;
      ] );
    ( "queueing.priority",
      [
        case "cumulative occupancy" test_priority_cumulative;
        case "per-class occupancy" test_priority_per_class;
        case "high class isolation" test_priority_high_class_isolated;
        case "saturation with empty class" test_priority_saturated_zero_class;
        case "total occupancy" test_priority_total;
      ] );
    ( "queueing.fair_share",
      [
        case "Table 1 decomposition" test_fs_table1_decomposition;
        case "decomposition, unsorted input" test_fs_decomposition_unsorted_input;
        case "level rates" test_fs_level_rates;
        case "fair cumulative load" test_fs_fair_cumulative_load;
        case "two-connection recursion" test_fs_recursion_two_conn;
        case "unsorted input order" test_fs_unsorted_input_order_preserved;
        case "tied rates" test_fs_equal_rates_symmetric;
        case "single connection = M/M/1" test_fs_single_matches_mm1;
        case "work conservation" test_fs_conservation;
        case "isolation under overload" test_fs_isolation_under_overload;
        case "zero rate" test_fs_zero_rate;
        case "zero-rate sojourn fast path" test_fs_sojourn_zero_rate_regression;
        case "FS vs FIFO redistribution" test_fs_vs_fifo_redistribution;
        case "Theorem 5 bound holds for FS" test_fs_theorem5_bound;
        case "Theorem 5 bound fails for FIFO" test_fifo_violates_theorem5_bound;
        prop_fs_zero_limit_closed_form;
      ] );
    ( "queueing.service",
      [
        case "dispatch" test_service_dispatch;
        case "processor sharing = FIFO in-model" test_processor_sharing_equals_fifo;
        case "sojourn at zero rate" test_service_sojourn_zero_rate;
        case "feasibility: fifo" test_feasibility_fifo;
        case "feasibility: fair share" test_feasibility_fs;
        case "feasibility rejects asymmetric" test_feasibility_rejects_bogus;
        case "feasibility rejects non-conserving" test_feasibility_rejects_nonconserving;
        case "roundtrip delay" test_delay_roundtrip;
        prop_conservation Service.fifo;
        prop_conservation Service.fair_share;
        prop_symmetry Service.fifo;
        prop_symmetry Service.fair_share;
        prop_partial_sums Service.fifo;
        prop_partial_sums Service.fair_share;
        prop_order Service.fifo;
        prop_order Service.fair_share;
        prop_fs_theorem5;
        prop_fs_triangularity;
      ] );
  ]
