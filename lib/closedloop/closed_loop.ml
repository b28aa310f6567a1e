open Ffc_numerics
open Ffc_topology
open Ffc_core
open Ffc_desim

type discipline = Netsim.discipline = Fifo | Fs_priority | Fair_queueing

type result = {
  times : float array;
  rates : float array array;
  signals : float array array;
  final_rates : float array;
  mean_tail_rates : float array;
}

(* Per-gateway (connection, hop) incidence in Gamma(a) order — shared by
   the FS table refresh and the measured-queue readout. *)
let gateway_incidence net paths =
  let n_gws = Network.num_gateways net in
  Array.init n_gws (fun a ->
      Network.connections_at_gateway net a
      |> List.map (fun i ->
             let hop = ref (-1) in
             Array.iteri (fun k g -> if g = a then hop := k) paths.(i);
             (i, !hop))
      |> Array.of_list)

(* The whole network on one fabric.  Both runners split [root] in the
   same order: a stream per gateway, then one per connection (after
   whatever the caller split first).  A capacity-based event-rate
   estimate sizes the timing-wheel tick: executed events per unit time
   are bounded by completions plus forwards at every gateway (~2 mu
   each) whatever the rates do. *)
let assemble ~net ~paths ~root ~r0 ~qdisc ?buffer_limit ?klass () =
  let gateways = Array.init (Network.num_gateways net) (Network.gateway net) in
  let capacity = Array.fold_left (fun acc g -> acc +. (2. *. g.Network.mu)) 0. gateways in
  let tick = Scheduler.auto_tick ~events_per_time:capacity in
  let sim = Sim.create ~scheduler:(Scheduler.Wheel { tick }) () in
  let server_rngs = Array.map (fun _ -> Rng.split root) gateways in
  let source_rngs = Array.map (fun _ -> Rng.split root) paths in
  let fabric =
    Fabric.create ~sim ~gateways ~paths ~rates:r0 ~qdisc ?buffer_limit ~server_rng:(Array.get server_rngs)
      ~source_rng:(Array.get source_rngs) ?klass ()
  in
  (sim, fabric)

(* Runs [updates] control windows of length [interval], calling
   [update k] at the end of window [k]. *)
let drive sim ~interval ~updates update =
  for k = 0 to updates - 1 do
    Sim.run ~until:(float_of_int (k + 1) *. interval) sim;
    update k
  done

(* Per-connection mean of the logged rates over the last [tail]
   updates. *)
let tail_mean rates_log ~tail =
  let updates = Array.length rates_log in
  Array.init (Array.length rates_log.(0)) (fun i ->
      let acc = ref 0. in
      for k = updates - tail to updates - 1 do
        acc := !acc +. rates_log.(k).(i)
      done;
      !acc /. float_of_int tail)

let run ~net ~discipline ~style ~signal ~adjusters ~r0 ~interval ~updates ~seed () =
  let n_conns = Network.num_connections net in
  let n_gws = Network.num_gateways net in
  if Array.length adjusters <> n_conns then
    invalid_arg "Closed_loop.run: adjuster count mismatch";
  if Array.length r0 <> n_conns then invalid_arg "Closed_loop.run: r0 length mismatch";
  if not (interval > 0.) then invalid_arg "Closed_loop.run: interval must be positive";
  if updates <= 0 then invalid_arg "Closed_loop.run: updates must be positive";
  Array.iter
    (fun r ->
      if (not (Float.is_finite r)) || r < 0. then
        invalid_arg "Closed_loop.run: rates must be finite and non-negative")
    r0;
  let root = Rng.create seed in
  let current_rates = Array.copy r0 in
  let paths =
    Array.init n_conns (fun i -> Array.of_list (Network.gateways_of_connection net i))
  in
  let incidence = gateway_incidence net paths in
  (* FS thinning tables per (connection, hop), refreshed at every
     control update. *)
  let class_tables = Array.map (Array.map (fun _ -> ([||] : (int * float) array))) paths in
  let refresh_class_tables () =
    if discipline = Fs_priority then
      for a = 0 to n_gws - 1 do
        let local_rates = Network.rates_at_gateway net ~rates:current_rates a in
        Array.iter
          (fun (i, hop) ->
            class_tables.(i).(hop) <-
              Netsim.fs_class_table ~local_rates ~rate:current_rates.(i))
          incidence.(a)
      done
  in
  refresh_class_tables ();
  let class_rng = Rng.split root in
  let klass =
    if discipline <> Fs_priority then None
    else
      Some
        (fun i hop ->
          let table = class_tables.(i).(hop) in
          if Array.length table = 0 then 0
          else
            Netsim.draw_fs_class table class_rng
              ~rate:(Float.max 1e-12 current_rates.(i)))
  in
  let sim, fabric =
    assemble ~net ~paths ~root ~r0 ~qdisc:(Netsim.qdisc_of discipline) ?klass ()
  in
  let measure = Fabric.measure fabric in
  (* The control loop.  At each update instant: read measured per-gateway
     queue averages over the closing window, form congestion measures and
     bottleneck-combined signals, adjust every rate, reset the window. *)
  let times = Array.make updates 0. in
  let rates_log = Array.make updates [||] in
  let signals_log = Array.make updates [||] in
  let line_latency i =
    Array.fold_left
      (fun acc a -> acc +. (Network.gateway net a).Network.latency)
      0. paths.(i)
  in
  let local_positions = Array.init n_conns (Network.local_positions net) in
  let do_update k =
    let now = Sim.now sim in
    (* Per-gateway congestion measures from the measured queue vectors
       (local connection order). *)
    let congestion =
      Array.map
        (fun conns ->
          Congestion.measures style
            (Array.map
               (fun (i, hop) ->
                 Measure.mean_occupancy measure
                   ~slot:(Measure.slot measure ~conn:i ~hop)
                   ~now)
               conns))
        incidence
    in
    let b =
      Array.init n_conns (fun i ->
          let acc = ref 0. in
          Array.iteri
            (fun hop a ->
              acc :=
                Float.max !acc
                  (Signal.eval signal congestion.(a).(local_positions.(i).(hop))))
            paths.(i);
          !acc)
    in
    let d =
      Array.init n_conns (fun i ->
          let measured = Measure.delay_mean measure ~conn:i in
          if Measure.delay_count measure ~conn:i > 0 then measured
          else line_latency i)
    in
    Array.iteri
      (fun i r ->
        let dr = Rate_adjust.eval adjusters.(i) ~r ~b:b.(i) ~d:d.(i) in
        current_rates.(i) <- Float.max 0. (r +. dr);
        Fabric.set_rate fabric ~conn:i current_rates.(i))
      (Array.copy current_rates);
    refresh_class_tables ();
    Measure.reset measure ~now;
    times.(k) <- now;
    rates_log.(k) <- Array.copy current_rates;
    signals_log.(k) <- b
  in
  drive sim ~interval ~updates do_update;
  {
    times;
    rates = rates_log;
    signals = signals_log;
    final_rates = Array.copy current_rates;
    mean_tail_rates = tail_mean rates_log ~tail:(Stdlib.max 1 (updates / 4));
  }

type drop_result = {
  dr_times : float array;
  dr_rates : float array array;
  dr_mean_tail_rates : float array;
  drop_fraction : float array;
  mean_utilization : float;
}

let run_drop_tail ~net ~buffer ~adjusters ~r0 ~interval ~updates ~seed () =
  let n_conns = Network.num_connections net in
  let n_gws = Network.num_gateways net in
  if Array.length adjusters <> n_conns then
    invalid_arg "Closed_loop.run_drop_tail: adjuster count mismatch";
  if Array.length r0 <> n_conns then
    invalid_arg "Closed_loop.run_drop_tail: r0 length mismatch";
  if buffer < 1 then invalid_arg "Closed_loop.run_drop_tail: buffer must be >= 1";
  if not (interval > 0.) then
    invalid_arg "Closed_loop.run_drop_tail: interval must be positive";
  if updates <= 0 then invalid_arg "Closed_loop.run_drop_tail: updates must be positive";
  let current_rates = Array.copy r0 in
  let paths =
    Array.init n_conns (fun i -> Array.of_list (Network.gateways_of_connection net i))
  in
  let sim, fabric =
    assemble ~net ~paths ~root:(Rng.create seed) ~r0 ~qdisc:Qdisc.Fifo
      ~buffer_limit:buffer ()
  in
  let measure = Fabric.measure fabric in
  let total_drops = Array.make n_conns 0 in
  let times = Array.make updates 0. in
  let rates_log = Array.make updates [||] in
  let tail = Stdlib.max 1 (updates / 4) in
  let tail_delivered = Array.make n_conns 0 in
  let do_update k =
    let now = Sim.now sim in
    (* Binary implicit signal: any drop in the window sets the "bit". *)
    Array.iteri
      (fun i r ->
        let drops = Measure.drops measure ~conn:i in
        total_drops.(i) <- total_drops.(i) + drops;
        let b = if drops > 0 then 1. else 0. in
        let d =
          if Measure.delay_count measure ~conn:i > 0 then
            Measure.delay_mean measure ~conn:i
          else 1.
        in
        let dr = Rate_adjust.eval adjusters.(i) ~r ~b ~d in
        current_rates.(i) <- Float.max 0. (r +. dr);
        Fabric.set_rate fabric ~conn:i current_rates.(i))
      (Array.copy current_rates);
    if k >= updates - tail then
      for i = 0 to n_conns - 1 do
        tail_delivered.(i) <- tail_delivered.(i) + Measure.deliveries measure ~conn:i
      done;
    Measure.reset measure ~now;
    times.(k) <- now;
    rates_log.(k) <- Array.copy current_rates
  in
  (* The last window closes at the last update, so the per-window drop
     counts sum to the run's total. *)
  drive sim ~interval ~updates do_update;
  let drop_fraction =
    Array.init n_conns (fun i ->
        let emitted = Fabric.emitted fabric ~conn:i in
        if emitted = 0 then 0. else float_of_int total_drops.(i) /. float_of_int emitted)
  in
  let total_mu = ref 0. in
  for a = 0 to n_gws - 1 do
    total_mu := !total_mu +. (Network.gateway net a).Network.mu
  done;
  let delivered_rate =
    Array.fold_left ( + ) 0 tail_delivered
    |> float_of_int
    |> fun x -> x /. (float_of_int tail *. interval)
  in
  {
    dr_times = times;
    dr_rates = rates_log;
    dr_mean_tail_rates = tail_mean rates_log ~tail;
    drop_fraction;
    mean_utilization = delivered_rate /. !total_mu;
  }
