(* The flow-control map computed the plain way: the individual
   congestion measure as a [Float.min] fold, the zero-rate sojourn limit
   by probing the queue vector a second time with a 1e-9·μ rate under
   every discipline, and the per-connection combines through a
   (connection, gateway) -> local position hash table.  The production
   path ([Feedback.evaluate], [Feedback.evaluate_rows], [Controller.map])
   must reproduce it bit for bit; this copy is the oracle the tests hold
   it to. *)

open Ffc_queueing
open Ffc_topology
open Ffc_core

let individual queues i =
  let qi = queues.(i) in
  Array.fold_left (fun acc q -> acc +. Float.min q qi) 0. queues

let local_rates net ~rates a =
  Network.connections_at_gateway net a |> List.map (fun i -> rates.(i)) |> Array.of_list

let measures (config : Feedback.config) ~net ~gw queues =
  match (config.style, config.weights) with
  | Congestion.Individual, Some weights ->
    let local_weights =
      Network.connections_at_gateway net gw
      |> List.map (fun i -> weights.(i))
      |> Array.of_list
    in
    Congestion.weighted_measures ~weights:local_weights queues
  | Congestion.Aggregate, _ ->
    let c = Congestion.aggregate queues in
    Array.map (fun _ -> c) queues
  | Congestion.Individual, None -> Array.mapi (fun i _ -> individual queues i) queues

let sojourns discipline ~mu rates q =
  let zero_limit =
    lazy
      (let probe = 1e-9 *. mu in
       let i0 = ref (-1) in
       Array.iteri (fun i r -> if !i0 < 0 && r = 0. then i0 := i) rates;
       let rates' = Array.copy rates in
       rates'.(!i0) <- probe;
       (Service.queue_lengths discipline ~mu rates').(!i0) /. probe)
  in
  Array.mapi (fun i r -> if r > 0. then q.(i) /. r else Lazy.force zero_limit) rates

let local_table net =
  let table = Hashtbl.create 64 in
  for a = 0 to Network.num_gateways net - 1 do
    List.iteri
      (fun pos i -> Hashtbl.add table (i, a) pos)
      (Network.connections_at_gateway net a)
  done;
  table

(* Per-gateway signal and sojourn vectors for the gateways [needed]
   selects. *)
let per_gateway (config : Feedback.config) ~net ~rates ~needed =
  let num_gw = Network.num_gateways net in
  let signals = Array.make num_gw [||] and waits = Array.make num_gw [||] in
  for a = 0 to num_gw - 1 do
    if needed a then begin
      let local = local_rates net ~rates a in
      let mu = (Network.gateway net a).Network.mu in
      let q = Service.queue_lengths config.discipline ~mu local in
      signals.(a) <- Array.map (Signal.eval config.signal) (measures config ~net ~gw:a q);
      waits.(a) <- sojourns config.discipline ~mu local q
    end
  done;
  (signals, waits)

let combine ~net ~table (signals, waits) i =
  let gws = Network.gateways_of_connection net i in
  let b =
    List.fold_left
      (fun acc a -> Float.max acc signals.(a).(Hashtbl.find table (i, a)))
      0. gws
  in
  let d =
    List.fold_left
      (fun acc a ->
        acc +. (Network.gateway net a).Network.latency +. waits.(a).(Hashtbl.find table (i, a)))
      0. gws
  in
  (b, d)

let evaluate config ~net ~rates =
  let table = local_table net in
  let per_gw = per_gateway config ~net ~rates ~needed:(fun _ -> true) in
  let bd = Array.init (Network.num_connections net) (combine ~net ~table per_gw) in
  (Array.map fst bd, Array.map snd bd)

let evaluate_rows config ~net ~rates ~rows =
  let table = local_table net in
  let needed a = Array.exists (fun i -> List.mem a (Network.gateways_of_connection net i)) rows in
  let per_gw = per_gateway config ~net ~rates ~needed in
  let n = Network.num_connections net in
  let b = Array.make n 0. and d = Array.make n 0. in
  Array.iter
    (fun i ->
      let bi, di = combine ~net ~table per_gw i in
      b.(i) <- bi;
      d.(i) <- di)
    rows;
  (b, d)

let map c ~net rates =
  let b, d = evaluate (Controller.config c) ~net ~rates in
  Controller.apply_feedback c ~b ~d rates
