(* The flow-control map against its plain-way oracle ([Feedback_oracle],
   bit for bit): [Feedback.evaluate], [Feedback.evaluate_rows] and
   [Controller.map] on random topologies, disciplines and rate vectors
   with zero, negative-zero, probe-sized and saturating rates; a NaN
   queue from a custom discipline still raising; and the full-tier DF
   of a churn-like mask on one shared gateway equal to finite
   differences over the oracle map. *)

open Ffc_numerics
open Ffc_queueing
open Ffc_topology
open Ffc_core
open Test_util

let bits = Int64.bits_of_float

let same_bits a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b

let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let agree eq a b =
  match (a, b) with
  | Ok x, Ok y -> eq x y
  | Error e, Error e' -> String.equal e e'
  | Ok _, Error _ | Error _, Ok _ -> false

let same_pair (b, d) (b', d') = same_bits b b' && same_bits d d'

let topology rng kind size =
  match kind with
  | 0 -> Topologies.single ~n:size ()
  | 1 -> Topologies.parking_lot ~hops:(1 + (size mod 5)) ()
  | 2 -> Topologies.multi_parking_lot ~lots:(1 + (size mod 3)) ~hops:(1 + (size / 3 mod 3)) ()
  | _ ->
    Topologies.random ~rng ~gateways:(1 + (size mod 4)) ~connections:(size + 3) ~max_path:3
      ()

let config rng net kind =
  match kind with
  | 0 -> Feedback.aggregate_fifo
  | 1 -> Feedback.individual_fifo
  | 2 -> Feedback.individual_fair_share
  | _ ->
    (* Weighted individual feedback; on one gateway the weighted Fair
       Share discipline too (its weights are the gateway's local ones). *)
    let weights = Array.init (Network.num_connections net) (fun _ -> Rng.range rng 0.5 4.) in
    let discipline =
      if Network.num_gateways net = 1 then Weighted_fair_share.service ~weights
      else Service.fair_share
    in
    Feedback.make ~weights ~style:Congestion.Individual ~signal:Signal.linear_fractional
      ~discipline ()

(* Rates at the edges of the zero-rate limit: exact zeros of both signs,
   the 1e-9·μ probe rate of the connection's first gateway, rates under
   and just over it, saturating rates and ordinary ones. *)
let rate rng ~net i =
  let mu = (Network.gateway net (List.hd (Network.gateways_of_connection net i))).Network.mu in
  let probe = 1e-9 *. mu in
  match Rng.int rng 8 with
  | 0 -> 0.
  | 1 -> -0.
  | 2 -> probe
  | 3 -> probe *. Rng.uniform rng
  | 4 -> probe *. (1. +. Rng.uniform rng)
  | 5 -> mu *. Rng.range rng 0.5 1.5
  | _ -> Rng.float rng (1.5 *. mu /. float_of_int (Network.num_connections net))

let prop_map_matches_oracle =
  prop "evaluate, evaluate_rows and map == oracle, bit for bit" ~count:400
    QCheck2.Gen.(quad (int_range 0 3) (int_range 0 3) (int_range 1 12) (int_range 0 0x3FFFFFFF))
    (fun (topo, cfg, size, seed) ->
      let rng = Rng.create seed in
      let net = topology rng topo size in
      let n = Network.num_connections net in
      let config = config rng net cfg in
      let c =
        Controller.homogeneous ~config ~adjuster:(Rate_adjust.additive ~eta:0.1 ~beta:0.5) ~n
      in
      let rates = Array.init n (rate rng ~net) in
      let rows = Array.of_list (List.filter (fun _ -> Rng.bool rng) (List.init n Fun.id)) in
      agree same_pair
        (outcome (fun () -> Feedback.evaluate config ~net ~rates))
        (outcome (fun () -> Feedback_oracle.evaluate config ~net ~rates))
      && agree same_pair
           (outcome (fun () -> Feedback.evaluate_rows config ~net ~rates ~rows))
           (outcome (fun () -> Feedback_oracle.evaluate_rows config ~net ~rates ~rows))
      && agree same_bits
           (outcome (fun () -> Controller.map c ~net rates))
           (outcome (fun () -> Feedback_oracle.map c ~net rates)))

let test_nan_queue_raises () =
  (* A custom discipline that reports NaN for one slot: the individual
     measure is NaN for every connection (min with NaN is NaN), and the
     signal function refuses it. *)
  let nan_queue =
    Service.make ~name:"nan-queue" (fun ~mu:_ rates ->
        Array.mapi (fun i _ -> if i = 1 then Float.nan else 0.1) rates)
  in
  check_true "every individual measure is NaN"
    (Array.for_all Float.is_nan
       (Congestion.measures Congestion.Individual [| 0.1; Float.nan; 0.3 |]));
  let config =
    Feedback.make ~style:Congestion.Individual ~signal:Signal.linear_fractional
      ~discipline:nan_queue ()
  in
  let net = Topologies.single ~n:3 () in
  let rates = [| 0.1; 0.2; 0.3 |] in
  let c = Controller.homogeneous ~config ~adjuster:(Rate_adjust.additive ~eta:0.1 ~beta:0.5) ~n:3 in
  let expected = Invalid_argument "Signal.eval: congestion must be >= 0" in
  Alcotest.check_raises "evaluate" expected (fun () ->
      ignore (Feedback.evaluate config ~net ~rates));
  Alcotest.check_raises "evaluate_rows" expected (fun () ->
      ignore (Feedback.evaluate_rows config ~net ~rates ~rows:[| 0 |]));
  Alcotest.check_raises "map" expected (fun () -> ignore (Controller.map c ~net rates));
  Alcotest.check_raises "oracle" expected (fun () ->
      ignore (Feedback_oracle.map c ~net rates))

let test_churn_mask_df_matches_oracle () =
  (* The churn-dense shape: 6 of 32 slots active on one shared gateway,
     the rest idle at rate 0 (the zero-rate limit on every probe). *)
  let n = 32 in
  let net = Topologies.single ~n () in
  let c =
    Controller.homogeneous ~config:Feedback.individual_fair_share
      ~adjuster:(Rate_adjust.additive ~eta:0.1 ~beta:0.5) ~n
  in
  let at = Array.make n 0. in
  List.iteri (fun k i -> at.(i) <- 0.012 +. (0.004 *. float_of_int k)) [ 1; 4; 9; 17; 22; 30 ];
  List.iter
    (fun (name, mode) ->
      let df = Mat.Sparse.to_dense (Jacobian.of_controller_sparse ~mode c ~net ~at) in
      let oracle = Fd_oracle.numeric ~mode (Feedback_oracle.map c ~net) ~at in
      check_true (name ^ ": DF == FD over the oracle map")
        (same_bits (Mat.to_flat oracle) (Mat.to_flat df)))
    [ ("central", Jacobian.Central); ("forward", Jacobian.Forward); ("backward", Jacobian.Backward) ]

let suites =
  [
    ( "core.feedback",
      [
        prop_map_matches_oracle;
        case "NaN queue still raises" test_nan_queue_raises;
        case "single:32 churn mask DF == oracle FD" test_churn_mask_df_matches_oracle;
      ] );
  ]
