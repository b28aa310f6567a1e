open Ffc_numerics
open Ffc_queueing
open Ffc_topology

type config = {
  style : Congestion.style;
  signal : Signal.t;
  discipline : Service.t;
  weights : Vec.t option;
}

let make ?weights ~style ~signal ~discipline () =
  Option.iter
    (Array.iter (fun w ->
         if not (Float.is_finite w && w > 0.) then
           invalid_arg "Feedback.make: weights must be finite and positive"))
    weights;
  { style; signal; discipline; weights }

let aggregate_fifo =
  make ~style:Congestion.Aggregate ~signal:Signal.linear_fractional
    ~discipline:Service.fifo ()

let individual_fifo =
  make ~style:Congestion.Individual ~signal:Signal.linear_fractional
    ~discipline:Service.fifo ()

let individual_fair_share =
  make ~style:Congestion.Individual ~signal:Signal.linear_fractional
    ~discipline:Service.fair_share ()

let queues config ~net ~rates ~gw =
  let local = Network.rates_at_gateway net ~rates gw in
  Service.queue_lengths config.discipline ~mu:(Network.gateway net gw).Network.mu local

(* Per-gateway congestion measures, honoring the optional weights (mapped
   into the gateway's local connection order). *)
let local_measures config ~net ~gw queues =
  match (config.style, config.weights) with
  | Congestion.Individual, Some weights ->
    let local_weights =
      Network.connections_at_gateway net gw
      |> List.map (fun i -> weights.(i))
      |> Array.of_list
    in
    Congestion.weighted_measures ~weights:local_weights queues
  | (Congestion.Aggregate | Congestion.Individual), _ ->
    Congestion.measures config.style queues

let signals_of_gateway config ~net ~gw queues =
  let c = local_measures config ~net ~gw queues in
  Array.map (Signal.eval config.signal) c

let per_gateway_signals config ~net ~rates =
  Array.init (Network.num_gateways net) (fun a ->
      let q = queues config ~net ~rates ~gw:a in
      signals_of_gateway config ~net ~gw:a q)

(* Bottleneck combination b_i = max_{a in gamma(i)} b^a_i of connection
   [i] from already-computed per-gateway signal vectors, folded in path
   order. *)
let combine_signal ~net per_gw i =
  let pos = Network.local_positions net i in
  let acc = ref 0. in
  List.iteri
    (fun j a -> acc := Float.max !acc per_gw.(a).(pos.(j)))
    (Network.gateways_of_connection net i);
  !acc

(* Round-trip delay d_i = Σ_{a in gamma(i)} (l_a + W^a_i), in path order. *)
let combine_delay ~net per_gw_sojourns i =
  let pos = Network.local_positions net i in
  let acc = ref 0. in
  List.iteri
    (fun j a ->
      acc := !acc +. (Network.gateway net a).Network.latency +. per_gw_sojourns.(a).(pos.(j)))
    (Network.gateways_of_connection net i);
  !acc

let combine_signals ~net per_gw =
  Array.init (Network.num_connections net) (combine_signal ~net per_gw)

let signals config ~net ~rates =
  combine_signals ~net (per_gateway_signals config ~net ~rates)

let bottlenecks config ~net ~rates =
  (* One per-gateway evaluation feeds both the combined signals and the
     arg-max filter. *)
  let per_gw = per_gateway_signals config ~net ~rates in
  let b = combine_signals ~net per_gw in
  Array.init (Network.num_connections net) (fun i ->
      let pos = Network.local_positions net i in
      List.filteri
        (fun j a -> Float.abs (per_gw.(a).(pos.(j)) -. b.(i)) <= 1e-12)
        (Network.gateways_of_connection net i))

let combine_delays ~net per_gw_sojourns =
  Array.init (Network.num_connections net) (combine_delay ~net per_gw_sojourns)

let delays config ~net ~rates =
  let sojourns =
    Array.init (Network.num_gateways net) (fun a ->
        let local = Network.rates_at_gateway net ~rates a in
        Service.sojourn_times config.discipline
          ~mu:(Network.gateway net a).Network.mu local)
  in
  combine_delays ~net sojourns

(* Restricted evaluation: feedback for the connections in [rows] only,
   touching only the gateways those connections cross.  Per-gateway
   arithmetic is a pure function of that gateway's local rate vector
   ([Service.evaluate] on [rates_at_gateway]), and the per-connection
   combines below fold in the same order as [combine_signals] /
   [combine_delays], so the entries produced for [rows] are bit-for-bit
   the ones [evaluate] computes — the property the incremental Jacobian
   kernels rely on.  Entries outside [rows] are left at 0. *)
let evaluate_rows config ~net ~rates ~rows =
  let num_gw = Network.num_gateways net in
  let needed = Array.make num_gw false in
  Array.iter
    (fun i -> List.iter (fun a -> needed.(a) <- true) (Network.gateways_of_connection net i))
    rows;
  let per_gw_signals = Array.make num_gw [||] in
  let per_gw_sojourns = Array.make num_gw [||] in
  for a = 0 to num_gw - 1 do
    if needed.(a) then begin
      let local = Network.rates_at_gateway net ~rates a in
      let q, w =
        Service.evaluate config.discipline ~mu:(Network.gateway net a).Network.mu local
      in
      per_gw_signals.(a) <- signals_of_gateway config ~net ~gw:a q;
      per_gw_sojourns.(a) <- w
    end
  done;
  let n = Network.num_connections net in
  let b = Array.make n 0. in
  let d = Array.make n 0. in
  Array.iter
    (fun i ->
      b.(i) <- combine_signal ~net per_gw_signals i;
      d.(i) <- combine_delay ~net per_gw_sojourns i)
    rows;
  (b, d)

let evaluate config ~net ~rates =
  (* Signals and delays both derive from the per-gateway queue state;
     one [Service.evaluate] per gateway feeds both, halving the queue
     computations of a controller step relative to calling [signals]
     and [delays] separately.  Values are identical to the separate
     calls — the shared queue vector is the same one both would
     compute. *)
  let num_gw = Network.num_gateways net in
  let per_gw_signals = Array.make num_gw [||] in
  let per_gw_sojourns = Array.make num_gw [||] in
  for a = 0 to num_gw - 1 do
    let local = Network.rates_at_gateway net ~rates a in
    let q, w =
      Service.evaluate config.discipline ~mu:(Network.gateway net a).Network.mu local
    in
    per_gw_signals.(a) <- signals_of_gateway config ~net ~gw:a q;
    per_gw_sojourns.(a) <- w
  done;
  (combine_signals ~net per_gw_signals, combine_delays ~net per_gw_sojourns)
