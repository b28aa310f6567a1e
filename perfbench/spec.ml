(* The benchmark's declared workloads and metrics: the single source
   BENCHMARK.json is written from (`main.exe spec`). *)

let workloads =
  [
    ( "churn-dense",
      "ffc serve --jobs 1 single:32, 1 connection, a fresh daemon per 1500-arrival episode: \
       full-tier churn, the Jacobian dominates each request; transport is a small share" );
    ( "churn-sparse",
      "ffc serve multi-parking-lot:32:3, 2 connections, batches of 8, queries, snapshots, \
       1000-arrival episodes: cheap sparse solves, so incremental/batch, protocol, fsync \
       carry the time" );
    ( "desim-scale",
      "Netsim.run on the simulate --flows pattern at 1e3/1e4/1e5 flows, ~1.9M events each: \
       same work, growing working set; never touched by the churn workloads" );
    ( "exp-all",
      "Registry.run_all ~jobs:1, cache off: the only path through lib/experiments, \
       closedloop, game and faults" );
  ]

(* name, unit, better, bound *)
let end_to_end =
  [
    ("setup_s", "s", "lower", 0.25);
    ("ops_per_cpu_s", "1/cpu-s", "higher", 0.25);
    ("peak_rss_mb", "MB", "lower", 0.2);
  ]

let tiers = [ "full"; "incremental"; "cached"; "shed" ]
let desim_sizes = [ "1e3"; "1e4"; "1e5" ]

let span_names =
  [
    "svc.request"; "svc.batch"; "steady.fair"; "steady.fair_masked"; "steady.update";
    "jac.of_controller"; "jac.sparse"; "jac.update"; "sparsity.probe"; "eigen.spectrum";
    "eigen.spectrum.sparse"; "desim.shard";
  ]

let experiment_ids =
  List.map (fun e -> e.Ffc_experiments.Exp_common.id) Ffc_experiments.Registry.all

(* name, unit, better *)
let per_layer =
  [
    ("req_per_s", "1/s", "higher");
    ("latency_p50_ms", "ms", "lower");
    ("latency_p99_ms", "ms", "lower");
    ("failed_frac", "frac", "lower");
    ("events_per_s_1e3", "1/s", "higher");
    ("events_per_s_1e4", "1/s", "higher");
    ("events_per_s_1e5", "1/s", "higher");
    ("exp_all_s", "s", "lower");
    ("server.transport_us_p50", "us", "lower");
    ("daemon.cpu_user_s", "s/1000req", "lower");
    ("daemon.cpu_sys_s", "s/1000req", "lower");
    ("protocol.parse_ns", "ns", "lower");
    ("protocol.lines", "count", "higher");
  ]
  @ List.map (fun t -> ("admission.handle_us_p50." ^ t, "us", "lower")) tiers
  @ List.map (fun t -> ("admission.requests." ^ t, "count", "higher")) tiers
  @ [
      ("admission.decisions.admit", "count", "higher");
      ("admission.decisions.reject", "count", "lower");
      ("admission.decisions.shed", "count", "lower");
      ("admission.batch_us_p50", "us", "lower");
      ("admission.batch_members", "count", "higher");
      ("query.us_p50", "us", "lower");
      ("admission.attempts_per_request", "ratio", "lower");
      ("snapshot.write_ms_p50", "ms", "lower");
      ("snapshot.writes", "count", "higher");
      ("snapshot.bytes", "bytes", "lower");
      ("steady.fair_masked_us", "us", "lower");
      ("steady.update_fair_us", "us", "lower");
      ("jacobian.sparse_us", "us", "lower");
      ("jacobian.update_flow_us", "us", "lower");
      ("jacobian.groups", "count", "lower");
      ("eigen.spectral_radius_sparse_us", "us", "lower");
      ("jacobian.share_of_request", "frac", "lower");
    ]
  @ List.map (fun s -> ("desim.setup_s." ^ s, "s", "lower")) desim_sizes
  @ List.map (fun s -> ("desim.loop_ns_per_event." ^ s, "ns", "lower")) desim_sizes
  @ List.map (fun s -> ("desim.events." ^ s, "count", "higher")) desim_sizes
  @ [
      ("scheduler.ns_per_op.1e3", "ns", "lower");
      ("scheduler.ns_per_op.1e5", "ns", "lower");
      ("desim.shard_imbalance", "ratio", "lower");
    ]
  @ List.map (fun id -> (Printf.sprintf "exp.%s_s" id, "s", "lower")) experiment_ids
  @ [
      ("exp.critical_path_s", "s", "lower");
      ("exp.parallel_efficiency", "ratio", "higher");
      ("obs.trace_overhead_frac", "frac", "lower");
    ]
  @ List.map (fun n -> ("self_ms." ^ n, "ms", "lower")) span_names
  @ [
      ("layers.share.transport", "frac", "lower");
      ("layers.share.protocol", "frac", "lower");
      ("layers.share.admission", "frac", "lower");
      ("layers.share.snapshot", "frac", "lower");
      ("layers.share.server_other", "frac", "lower");
      ("layers.explained_frac", "frac", "higher");
    ]

let command = [ "bash"; "perfbench/run.sh" ]
let paths = [ "perfbench" ]
let run_seconds = 10

let json () =
  let s = Ffc_obs.Jsonf.string in
  let list items = String.concat ",\n" items in
  Printf.sprintf
    "{\n\
    \  \"command\": [%s],\n\
    \  \"paths\": [%s],\n\
    \  \"run_seconds\": %d,\n\
    \  \"workloads\": [\n%s\n  ],\n\
    \  \"end_to_end\": [\n%s\n  ],\n\
    \  \"per_layer\": [\n%s\n  ]\n\
     }\n"
    (String.concat ", " (List.map s command))
    (String.concat ", " (List.map s paths))
    run_seconds
    (list
       (List.map
          (fun (n, why) -> Printf.sprintf "    {\"name\": %s, \"why\": %s}" (s n) (s why))
          workloads))
    (list
       (List.map
          (fun (n, u, b, bound) ->
            Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %g}"
              (s n) (s u) (s b) bound)
          end_to_end))
    (list
       (List.map
          (fun (n, u, b) ->
            Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s}" (s n) (s u)
              (s b))
          per_layer))
