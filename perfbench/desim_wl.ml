(* The desim-scale workload: `ffc simulate --flows N` with its default
   rate pattern at N = 10^3, 10^4 and 10^5.  The horizons give about
   1.9M events at every size, so only the working set grows. *)

open Ffc_topology
module N = Ffc_desim.Netsim

let sizes = [ ("1e3", 1000, 2000.); ("1e4", 10_000, 200.); ("1e5", 100_000, 20.) ]

(* `ffc simulate --flows N`: disjoint 3-hop parking lots and the E27
   load pattern. *)
let net_of n = Topologies.multi_parking_lot ~mu:1. ~latency:0.05 ~lots:(n / 4) ~hops:3 ()

let rates_of net =
  Array.init (Network.num_connections net) (fun i ->
      if i mod 4 = 0 then 0.25 else 0.21 +. (0.03 *. float_of_int (i mod 3)))

(* `ffc simulate`'s default shard count on a 2-core host. *)
let default_shards = 8

(* Topology build plus the run, timed together as the user waits for
   them; a near-zero horizon measures set-up alone. *)
let simulate ~seed ~shards ~n ~horizon =
  Host.time (fun () ->
      let net = net_of n in
      let rates = rates_of net in
      let res =
        N.run ~net ~rates ~discipline:N.Fifo ~seed ~shards ~jobs:Host.jobs ~horizon
          ()
      in
      (net, rates, res))

let setup_horizon = 1e-6

(* One measurement at one size: set-up and event-loop wall time, and
   the event loop's CPU time (all domains). *)
type round = { setup : float; loop : float; loop_cpu : float; events : int }

let measure ~seed ~n ~horizon =
  let c0 = Host.cpu_self () in
  let _, setup = simulate ~seed ~shards:default_shards ~n ~horizon:setup_horizon in
  let c1 = Host.cpu_self () in
  let (net, rates, res), total = simulate ~seed ~shards:default_shards ~n ~horizon in
  let c2 = Host.cpu_self () in
  let loop_cpu = c2 -. c1 -. (c1 -. c0) in
  ({ setup; loop = total -. setup; loop_cpu; events = N.events res }, net, rates, res)

let deliveries net res =
  Array.init (Network.num_connections net) (fun i -> N.deliveries res ~conn:i)

(* No drops, and delivered throughput equal to the offered load within
   the 95% Poisson interval plus the packets a Little's-law backlog
   (offered × mean delay) can hold at the window's edges. *)
let check_result r label net rates res =
  let n = Network.num_connections net in
  let drops = ref 0 and delivered = ref 0 and delay = ref 0. in
  for i = 0 to n - 1 do
    drops := !drops + N.drops res ~conn:i;
    let d = N.deliveries res ~conn:i in
    delivered := !delivered + d;
    delay := !delay +. (float_of_int d *. N.delay_mean res ~conn:i)
  done;
  let offered = Array.fold_left ( +. ) 0. rates in
  let w = N.window res in
  let tput = float_of_int !delivered /. w in
  let mean_delay = if !delivered > 0 then !delay /. float_of_int !delivered else 0. in
  let band = (1.96 *. sqrt (offered *. w) /. w) +. (offered *. mean_delay /. w) in
  Report.check r ("no_drops." ^ label) (!drops = 0) (Printf.sprintf "%d dropped" !drops);
  Report.check r ("throughput." ^ label)
    (Float.abs (tput -. offered) <= band)
    (Printf.sprintf "delivered %.2f vs offered %.2f (band %.2f)" tput offered band)

(* Scheduler cost from its public calls: [held] pending events, then
   pop-one / schedule-one steps. *)
let scheduler_ns_per_op ~seed ~held =
  let module S = Ffc_desim.Scheduler in
  let rng = Ffc_numerics.Rng.create seed in
  let rate = float_of_int held in
  let s = S.create (S.Wheel { tick = S.auto_tick ~events_per_time:rate }) in
  for i = 1 to held do
    S.schedule s ~time:(Ffc_numerics.Rng.uniform rng) ~handler:0 ~a:i ~b:0
  done;
  let steps = 2_000_000 in
  let (), dt =
    Host.time (fun () ->
        for _ = 1 to steps do
          if S.pop s then
            S.schedule s
              ~time:(S.popped_time s +. (-.Float.log (Ffc_numerics.Rng.uniform_pos rng)))
              ~handler:0 ~a:(S.popped_a s) ~b:0
        done)
  in
  dt *. 1e9 /. float_of_int (2 * steps)

let run ~seed ~seconds ~trace r =
  if not trace then begin
    let t_end = Host.now () +. seconds in
    let rounds = ref [] in
    let first = ref true in
    while !first || Host.now () < t_end do
      let round =
        List.map
          (fun (label, n, horizon) ->
            let m, net, rates, res = measure ~seed ~n ~horizon in
            if !first then check_result r label net rates res;
            (label, m))
          sizes
      in
      first := false;
      rounds := round :: !rounds
    done;
    let per label f = List.map (fun round -> f (List.assoc label round)) !rounds in
    List.iter
      (fun (label, _, _) ->
        let evs = per label (fun m -> m.events) in
        Report.check r ("events_repeat." ^ label)
          (List.for_all (( = ) (List.hd evs)) evs)
          (Printf.sprintf "%d events in each of %d rounds" (List.hd evs) (List.length evs)))
      sizes;
    let over_sizes f = Bstats.sum (List.map (fun (l, _, _) -> f l) sizes) in
    let events = over_sizes (fun l -> float_of_int (List.hd (per l (fun m -> m.events)))) in
    let loop_cpu = over_sizes (fun l -> Bstats.median (per l (fun m -> m.loop_cpu))) in
    Report.metric r "ops_per_cpu_s" "1/cpu-s" (events /. loop_cpu);
    let round_setup round = Bstats.sum (List.map (fun (_, m) -> m.setup) round) in
    Report.metric r "setup_s" "s" (Bstats.median (List.map round_setup !rounds));
    Report.metric r "peak_rss_mb" "MB" (Host.peak_rss_mb ());
    Report.count_checks r
  end
  else begin
    let trace_path = Host.scratch_file "desim.trace" in
    let untraced = ref 0. and traced = ref 0. in
    let shard_walls = ref [] and events = ref [] in
    List.iter
      (fun (label, n, horizon) ->
        let m, net, rates, res = measure ~seed ~n ~horizon in
        check_result r label net rates res;
        Report.metric r ("desim.setup_s." ^ label) "s" m.setup;
        Report.metric r ("desim.loop_ns_per_event." ^ label) "ns"
          (m.loop *. 1e9 /. float_of_int m.events);
        Report.metric r ("desim.events." ^ label) "count" (float_of_int m.events);
        Report.metric r ("events_per_s_" ^ label) "1/s" (float_of_int m.events /. m.loop);
        untraced := !untraced +. m.setup +. m.loop;
        (* The traced pass uses another shard count: results must not
           depend on it. *)
        let sink = Ffc_obs.Sink.file trace_path in
        let ctx = Ffc_obs.Ctx.make ~sink ~sched:true () in
        let (_, _, res'), dt =
          Ffc_obs.Ctx.with_ctx ctx (fun () ->
              simulate ~seed ~shards:(default_shards - 1) ~n ~horizon)
        in
        Ffc_obs.Sink.close sink;
        traced := !traced +. dt;
        let same = N.events res' = m.events && deliveries net res' = deliveries net res in
        Report.check r ("shard_invariance." ^ label) same
          (Printf.sprintf "%d vs %d shards: %d events" default_shards (default_shards - 1)
             (N.events res'));
        let evs =
          Host.span_events trace_path
        in
        events := !events @ evs;
        if label = "1e5" then
          shard_walls :=
            List.filter_map
              (function Bstats.End ("desim.shard", ms) -> Some ms | _ -> None)
              evs)
      sizes;
    Report.metric r "desim.shard_imbalance" "ratio"
      (if !shard_walls = [] then 0.
       else List.fold_left Float.max 0. !shard_walls /. Bstats.mean !shard_walls);
    Report.metric r "obs.trace_overhead_frac" "frac" ((!traced /. !untraced) -. 1.);
    List.iter
      (fun (name, ms) -> Report.metric r ("self_ms." ^ name) "ms" ms)
      (Bstats.self_times !events);
    Report.metric r "scheduler.ns_per_op.1e3" "ns" (scheduler_ns_per_op ~seed ~held:1000);
    Report.metric r "scheduler.ns_per_op.1e5" "ns"
      (scheduler_ns_per_op ~seed ~held:100_000);
    Report.count_checks r
  end
