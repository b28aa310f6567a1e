(* ffc — command-line driver for the feedback flow control reproduction.

   Subcommands:
     ffc exp [ID | all]      regenerate paper experiments
     ffc analyze ...         run the design matrix on a topology
     ffc simulate ...        packet-level simulation of a topology
     ffc topology ...        emit canonical topologies in the DSL *)

open Cmdliner
open Ffc_numerics
open Ffc_topology
open Ffc_core
open Ffc_faults

(* ------------------------------------------------------------------ *)
(* Shared argument converters                                          *)
(* ------------------------------------------------------------------ *)

let topology_term =
  let file =
    Arg.(
      value
      & opt (some file) None
      & info [ "topology"; "t" ] ~docv:"FILE" ~doc:"Topology description file (DSL).")
  in
  let preset =
    Arg.(
      value
      & opt (some string) None
      & info [ "preset"; "p" ] ~docv:"NAME"
          ~doc:
            "Built-in topology: single:N, parking-lot:HOPS, \
             multi-parking-lot:LOTS:HOPS, chain:HOPS:CONNS, star:LEGS, \
             dumbbell:L:R.")
  in
  let build file preset =
    match (file, preset) with
    | Some path, None -> (
      let text = In_channel.with_open_text path In_channel.input_all in
      match Dsl.parse text with
      | Ok net -> Ok net
      | Error { Dsl.line; message } ->
        Error (Printf.sprintf "%s:%d: %s" path line message))
    | None, Some spec -> (
      let fail () =
        Error
          (Printf.sprintf
             "bad preset %S (try single:4, parking-lot:3, multi-parking-lot:2:3, \
              chain:2:3, star:3, dumbbell:2:2)"
             spec)
      in
      match String.split_on_char ':' spec with
      | [ "single"; n ] -> (
        match int_of_string_opt n with
        | Some n when n > 0 -> Ok (Topologies.single ~n ())
        | _ -> fail ())
      | [ "parking-lot"; h ] -> (
        match int_of_string_opt h with
        | Some hops when hops > 0 -> Ok (Topologies.parking_lot ~hops ())
        | _ -> fail ())
      | [ "multi-parking-lot"; l; h ] -> (
        match (int_of_string_opt l, int_of_string_opt h) with
        | Some lots, Some hops when lots > 0 && hops > 0 ->
          Ok (Topologies.multi_parking_lot ~lots ~hops ())
        | _ -> fail ())
      | [ "chain"; h; c ] -> (
        match (int_of_string_opt h, int_of_string_opt c) with
        | Some hops, Some conns when hops > 0 && conns > 0 ->
          Ok (Topologies.chain ~hops ~conns ())
        | _ -> fail ())
      | [ "star"; l ] -> (
        match int_of_string_opt l with
        | Some legs when legs > 0 -> Ok (Topologies.star ~legs ())
        | _ -> fail ())
      | [ "dumbbell"; l; r ] -> (
        match (int_of_string_opt l, int_of_string_opt r) with
        | Some left, Some right when left > 0 && right > 0 ->
          Ok (Topologies.dumbbell ~left ~right ())
        | _ -> fail ())
      | _ -> fail ())
    | None, None -> Error "provide --topology FILE or --preset NAME"
    | Some _, Some _ -> Error "--topology and --preset are mutually exclusive"
  in
  Term.(const build $ file $ preset)

(* Adjuster spec: "additive:ETA:BETA", "proportional:ETA:BETA",
   "fair-rate:ETA:BETA", "decbit:ETA:BETA". *)
let parse_adjuster spec =
  match String.split_on_char ':' spec with
  | [ kind; eta; beta ] -> (
    match (float_of_string_opt eta, float_of_string_opt beta) with
    | Some eta, Some beta -> (
      try
        match kind with
        | "additive" -> Ok (Rate_adjust.additive ~eta ~beta)
        | "proportional" -> Ok (Rate_adjust.proportional ~eta ~beta)
        | "fair-rate" -> Ok (Rate_adjust.fair_rate_limd ~eta ~beta)
        | "decbit" -> Ok (Rate_adjust.decbit_window ~eta ~beta)
        | _ -> Error (Printf.sprintf "unknown adjuster kind %S" kind)
      with Invalid_argument msg -> Error msg)
    | _ -> Error (Printf.sprintf "bad adjuster numbers in %S" spec))
  | _ -> Error (Printf.sprintf "bad adjuster spec %S (want kind:eta:beta)" spec)

let adjusters_term =
  Arg.(
    value
    & opt_all string [ "additive:0.1:0.5" ]
    & info [ "adjuster"; "a" ] ~docv:"SPEC"
        ~doc:
          "Rate-adjustment algorithm kind:eta:beta (kinds: additive, \
           proportional, fair-rate, decbit). Give one, or one per \
           connection for a heterogeneous population.")

(* All exit decisions go through the one shared contract — analyze, exp
   and serve must agree on what each number means. *)
let exit_err msg = Exit_code.fail msg

(* -j/--jobs: degree of parallelism for the work pool.  Output is
   byte-identical whatever the value — results are collected in input
   order and every task derives its own RNG stream. *)
let jobs_term =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run independent experiments and sweeps on up to $(docv) domains \
           (default: the hardware's recommended domain count). Output is \
           byte-identical to --jobs 1.")

let apply_jobs jobs =
  if jobs < 1 then exit_err "--jobs must be >= 1";
  Pool.set_default_jobs jobs

let resolve_adjusters specs n =
  let parsed =
    List.map
      (fun s -> match parse_adjuster s with Ok a -> a | Error e -> exit_err e)
      specs
  in
  match parsed with
  | [ single ] -> Array.make n single
  | many when List.length many = n -> Array.of_list many
  | many ->
    exit_err
      (Printf.sprintf "%d adjusters given for %d connections" (List.length many) n)

let parse_rates spec n =
  let parts = String.split_on_char ',' spec in
  let floats = List.map float_of_string_opt parts in
  if List.for_all Option.is_some floats && List.length floats = n then
    Array.of_list (List.map Option.get floats)
  else exit_err (Printf.sprintf "bad rate list %S for %d connections" spec n)

(* Fault spec: "stale:LAG[@CONNS]", "lossy:P[@CONNS]", "noise:SIGMA[@CONNS]",
   "quantize:T[@CONNS]", "dead@CONNS", "flap:PERIOD:UP@CONNS",
   "greedy:RAMP:CAP@CONNS", "gw-cut:GW:FRACTION:FROM[:UNTIL]"; CONNS is a
   comma-separated index list, omitted = every connection. *)
let parse_fault spec =
  let bad () = Error (Printf.sprintf "bad fault spec %S" spec) in
  let conns_of = function
    | None -> Ok None
    | Some s ->
      let parts = List.map int_of_string_opt (String.split_on_char ',' s) in
      if parts <> [] && List.for_all Option.is_some parts then
        Ok (Some (List.map Option.get parts))
      else bad ()
  in
  let lhs, conns =
    match String.split_on_char '@' spec with
    | [ lhs ] -> (lhs, None)
    | [ lhs; conns ] -> (lhs, Some conns)
    | _ -> ("", None)
  in
  let with_conns kind =
    Result.map
      (fun c ->
        match c with None -> Fault.everywhere kind | Some l -> Fault.on l kind)
      (conns_of conns)
  in
  match String.split_on_char ':' lhs with
  | [ "stale"; lag ] -> (
    match int_of_string_opt lag with
    | Some lag -> with_conns (Fault.Stale { lag })
    | None -> bad ())
  | [ "lossy"; p ] -> (
    match float_of_string_opt p with
    | Some p -> with_conns (Fault.Lossy { p })
    | None -> bad ())
  | [ "noise"; sigma ] -> (
    match float_of_string_opt sigma with
    | Some sigma -> with_conns (Fault.Noisy { sigma })
    | None -> bad ())
  | [ "quantize"; t ] -> (
    match float_of_string_opt t with
    | Some threshold -> with_conns (Fault.Quantized { threshold })
    | None -> bad ())
  | [ "dead" ] -> with_conns Fault.Dead
  | [ "flap"; period; up ] -> (
    match (int_of_string_opt period, int_of_string_opt up) with
    | Some period, Some up -> with_conns (Fault.Flap { period; up })
    | _ -> bad ())
  | [ "greedy"; ramp; cap ] -> (
    match (float_of_string_opt ramp, float_of_string_opt cap) with
    | Some ramp, Some cap -> with_conns (Fault.Greedy { ramp; cap })
    | _ -> bad ())
  | "gw-cut" :: rest -> (
    if conns <> None then bad ()
    else
      match rest with
      | [ gw; fraction; from_step ] | [ gw; fraction; from_step; _ ] -> (
        let until_step =
          match rest with
          | [ _; _; _; u ] -> Option.map Option.some (int_of_string_opt u)
          | _ -> Some None
        in
        match
          (int_of_string_opt gw, float_of_string_opt fraction,
           int_of_string_opt from_step, until_step)
        with
        | Some gw, Some fraction, Some from_step, Some until_step ->
          Ok (Fault.everywhere (Fault.Gateway_cut { gw; fraction; from_step; until_step }))
        | _ -> bad ())
      | _ -> bad ())
  | _ -> bad ()

let fault_term =
  Arg.(
    value
    & opt_all string []
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:
          "Inject a fault (repeatable): stale:LAG[@CONNS], lossy:P[@CONNS], \
           noise:SIGMA[@CONNS], quantize:T[@CONNS], dead@CONNS, \
           flap:PERIOD:UP@CONNS, greedy:RAMP:CAP@CONNS, \
           gw-cut:GW:FRACTION:FROM[:UNTIL]. CONNS is a comma-separated \
           connection index list; omitted means every connection.")

let fault_seed_term =
  Arg.(
    value & opt int 0
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Seed for the stochastic faults' split RNG streams.")

let retries_term =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"K"
        ~doc:
          "Supervised runs: retry a diverged run up to $(docv) times, halving \
           every adjuster's gain each time.")

let budget_term =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget" ] ~docv:"SECONDS"
        ~doc:"Wall-clock budget for supervised retries (checked between attempts).")

let escape_term =
  Arg.(
    value & opt float 1e12
    & info [ "escape" ] ~docv:"R"
        ~doc:
          "Divergence threshold: a run whose rate exceeds $(docv) (or goes \
           non-finite) counts as diverged.")

let resolve_plan fault_specs ~seed ~net =
  let specs =
    List.map
      (fun s -> match parse_fault s with Ok spec -> spec | Error e -> exit_err e)
      fault_specs
  in
  let plan = Fault.plan ~seed specs in
  (try Fault.validate plan ~net with Invalid_argument msg -> exit_err msg);
  plan

(* ------------------------------------------------------------------ *)
(* Observability flags                                                  *)
(* ------------------------------------------------------------------ *)

let trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL event trace (controller steps, supervisor verdicts, \
           fault firings, simulator deliveries) to $(docv). The trace is \
           deterministic: byte-identical for the same inputs at any --jobs.")

let metrics_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a JSON run manifest (command, subject, seeds, fault plan, \
           jobs, git revision) plus the final metrics snapshot to $(docv).")

let trace_stride_term =
  Arg.(
    value & opt int 1
    & info [ "trace-stride" ] ~docv:"N"
        ~doc:
          "Sample high-frequency trace events (controller steps, fault drops, \
           packet deliveries) every $(docv)-th occurrence (default 1 = all).")

let trace_sched_term =
  Arg.(
    value & flag
    & info [ "trace-sched" ]
        ~doc:
          "Also trace pool scheduling (chunk dispatch with per-domain \
           attribution). These events depend on --jobs and thread timing, so \
           they are excluded from the trace's byte-identity guarantee.")

let trace_det_term =
  Arg.(
    value & flag
    & info [ "trace-deterministic" ]
        ~doc:
          "Zero the trace's wall-clock timing channel: span events report \
           wall_ns=0 and alloc_w=0 and the service latency histograms record \
           zeros, so the full trace — spans included — is byte-identical \
           across runs and machines.")

(* ------------------------------------------------------------------ *)
(* Result-cache flags                                                  *)
(* ------------------------------------------------------------------ *)

let cache_term =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:
          "Memoize steady-state solves, window fixed points, Jacobian \
           columns/spectra and whole experiment cells in a content-addressed \
           on-disk cache (default directory $(b,_ffc_cache/)). Cached results \
           are byte-identical to fresh ones at any --jobs.")

let no_cache_term =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Disable the result cache even when --cache or --cache-dir is given.")

let cache_dir_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Result-cache directory (implies --cache). Default: $(b,_ffc_cache/).")

(* Install the ambient result cache around [f] when asked.  The run's
   counters land next to the entries (last_run.json) so `ffc cache
   stats` and the CI smoke check can read the warm-run hit ratio
   without parsing a manifest.  Exit codes are decided by the caller
   after this returns, exactly as with [with_obs]. *)
let with_cache ~cache ~no_cache ~cache_dir f =
  let enabled = (cache || cache_dir <> None) && not no_cache in
  if not enabled then f ()
  else begin
    let c = Ffc_cache.Cache.create ?dir:cache_dir () in
    Fun.protect
      ~finally:(fun () -> Ffc_cache.Cache.write_run_stats c)
      (fun () -> Ffc_cache.Cache.with_cache c f)
  end

(* The manifest's cache section, from the ambient cache if one is
   installed (so [with_cache] must wrap [with_obs], which it does at
   every call site). *)
let cache_provenance () =
  match Ffc_cache.Cache.active () with
  | None -> None
  | Some c ->
    let k = Ffc_cache.Cache.counters c in
    Some
      {
        Ffc_obs.Provenance.cache_dir = Ffc_cache.Cache.dir c;
        key_schema = Ffc_cache.Key.schema_version;
        hits = k.Ffc_cache.Cache.hits;
        misses = k.Ffc_cache.Cache.misses;
        stores = k.Ffc_cache.Cache.stores;
        evictions = k.Ffc_cache.Cache.evictions;
        hit_ratio = Ffc_cache.Cache.hit_ratio k;
      }

(* Install an observability context around [f] when --trace/--metrics
   asked for one.  [f] must return (not call [exit]): Stdlib.exit does
   not unwind the stack, so the sink close and manifest write below
   would be skipped — exit decisions happen after this returns. *)
let with_obs ~command ~subject ?(adjusters = []) ?(seeds = []) ?(faults = [])
    ?(force = false) ~jobs ~trace ~metrics ~stride ~sched ~timing f =
  if stride < 1 then exit_err "--trace-stride must be >= 1";
  match (trace, metrics) with
  | None, None when not force -> f ()
  | _ ->
    let sink =
      match trace with
      | Some path -> Ffc_obs.Sink.file path
      | None -> Ffc_obs.Sink.null
    in
    let ctx = Ffc_obs.Ctx.make ~sink ~stride ~sched ~timing () in
    Fun.protect
      ~finally:(fun () ->
        (match metrics with
        | Some path ->
          let prov =
            Ffc_obs.Provenance.collect ~command ~subject ~adjusters ~seeds
              ~faults ?cache:(cache_provenance ()) ~jobs ~stride ()
          in
          let snap = Ffc_obs.Metrics.snapshot (Ffc_obs.Ctx.metrics ctx) in
          Ffc_obs.Provenance.write ~path prov ~metrics:(Some snap)
        | None -> ());
        Ffc_obs.Sink.close sink)
      (fun () ->
        Ffc_obs.Ctx.with_ctx ctx (fun () ->
            let seed = List.assoc_opt "fault" seeds in
            (match Ffc_obs.Ctx.tracing () with
            | Some c ->
              Ffc_obs.Ctx.emit c
                (Ffc_obs.Event.run_start ~cmd:command ~target:subject ?seed
                   ~stride ())
            | None -> ());
            let result = f () in
            (match Ffc_obs.Ctx.tracing () with
            | Some c -> Ffc_obs.Ctx.emit c (Ffc_obs.Event.run_end ~cmd:command ())
            | None -> ());
            result))

let exit_outcomes outcomes = Exit_code.of_outcomes outcomes

(* ------------------------------------------------------------------ *)
(* exp                                                                 *)
(* ------------------------------------------------------------------ *)

let exp_cmd =
  let id =
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc:"Experiment id or 'all'.")
  in
  let run id jobs cache no_cache cache_dir trace metrics stride sched det =
    apply_jobs jobs;
    match String.lowercase_ascii id with
    | "list" ->
      List.iter
        (fun e ->
          Printf.printf "%-4s %-60s [%s]\n" e.Ffc_experiments.Exp_common.id
            e.Ffc_experiments.Exp_common.title e.Ffc_experiments.Exp_common.paper_ref)
        Ffc_experiments.Registry.all
    | lid -> (
      let out =
        with_cache ~cache ~no_cache ~cache_dir (fun () ->
            with_obs ~command:"exp" ~subject:lid ~jobs ~trace ~metrics ~stride
              ~sched ~timing:(not det) (fun () ->
                match lid with
                | "all" -> Ok (Ffc_experiments.Registry.run_all ~jobs ())
                | _ -> Ffc_experiments.Registry.run_one id))
      in
      match out with Ok s -> print_string s | Error e -> exit_err e)
  in
  Cmd.v
    (Cmd.info "exp"
       ~doc:
         "Regenerate the paper's tables and figures (E1-E24); 'list' prints the \
          index, 'all' runs everything. With --cache, results are memoized in a \
          content-addressed store and a warm re-run replays byte-identically.")
    Term.(
      const run $ id $ jobs_term $ cache_term $ no_cache_term $ cache_dir_term
      $ trace_term $ metrics_term $ trace_stride_term $ trace_sched_term
      $ trace_det_term)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let r0_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "start"; "r0" ] ~docv:"R0"
          ~doc:"Comma-separated initial rates (default: 0.02 everywhere).")
  in
  let csv_trace_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv-trace" ] ~docv:"FILE"
          ~doc:
            "Also write the individual+fair-share rate trajectory (400 steps) \
             as CSV to FILE.")
  in
  let json_term =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Report one supervised verdict per design as a JSON line \
             (machine-readable, deterministic: wall-clock time excluded, \
             floats exact). Implies supervised runs even without --fault.")
  in
  let run net_result specs r0_spec csv_trace_file fault_specs fault_seed retries
      budget escape json jobs cache no_cache cache_dir trace metrics stride sched
      det =
    apply_jobs jobs;
    match net_result with
    | Error e -> exit_err e
    | Ok net ->
      let n = Network.num_connections net in
      let adjusters = resolve_adjusters specs n in
      let r0 =
        match r0_spec with
        | None -> Array.make n 0.02
        | Some s -> parse_rates s n
      in
      if retries < 0 then exit_err "--retries must be >= 0";
      let plan = resolve_plan fault_specs ~seed:fault_seed ~net in
      let supervised =
        (not (Fault.is_empty plan)) || retries > 0 || budget <> None
        || escape <> 1e12 || json
      in
      if not json then Format.printf "%a@.@." Network.pp net;
      let subject =
        Printf.sprintf "topology(%d gw, %d conn)" (Network.num_gateways net) n
      in
      let run_designs () =
        if supervised then begin
          (* Faults or retry policy requested: run each design under the
             supervisor and report verdicts instead of the plain design
             matrix. *)
          List.map
            (fun d ->
              let c = Controller.create ~config:d.Analysis.config ~adjusters in
              let v =
                Supervisor.run ~escape ~retries ?wall_budget:budget ~plan c ~net ~r0
              in
              if json then begin
                print_endline
                  (Supervisor.verdict_to_json ~label:d.Analysis.label v);
                v.Supervisor.outcome
              end
              else begin
              Printf.printf "design %s\n" d.Analysis.label;
              List.iter (fun f -> Printf.printf "  fault    %s\n" f) v.Supervisor.faults;
              Printf.printf "  outcome  %s%s\n"
                (match v.Supervisor.outcome with
                | Controller.Converged { steps; _ } ->
                  Printf.sprintf "converged in %d steps" steps
                | Controller.Cycle { period; _ } ->
                  Printf.sprintf "limit cycle, period %d" period
                | Controller.Diverged { at_step } ->
                  Printf.sprintf "diverged at step %d" at_step
                | Controller.No_convergence _ -> "no convergence")
                (if v.Supervisor.recovered then
                   Printf.sprintf " (recovered: %d attempts, gain x%g)"
                     v.Supervisor.attempts v.Supervisor.damping
                 else if v.Supervisor.attempts > 1 then
                   Printf.sprintf " (%d attempts)" v.Supervisor.attempts
                 else "");
              (match v.Supervisor.final with
              | Some f -> Printf.printf "  rates    %s\n" (Vec.to_string f)
              | None -> ());
              (match v.Supervisor.min_ratio with
              | Some x -> Printf.printf "  min well-behaved throughput/baseline  %.4f\n" x
              | None -> ());
              print_newline ();
              v.Supervisor.outcome
              end)
            Analysis.designs
        end
        else
          List.map
            (fun report ->
              Format.printf "%a@.@." Analysis.pp_report report;
              report.Analysis.outcome)
            (Analysis.evaluate_all ~jobs ~adjusters ~net r0)
      in
      (* [run_designs] returns rather than exiting: the exit-code
         decision waits until [with_obs] has flushed the trace and
         written the manifest. *)
      let outcomes =
        with_cache ~cache ~no_cache ~cache_dir (fun () ->
            with_obs ~command:"analyze" ~subject ~adjusters:specs
              ~seeds:[ ("fault", fault_seed) ]
              ~faults:(Fault.describe plan) ~jobs ~trace ~metrics ~stride ~sched
              ~timing:(not det) run_designs)
      in
      (* The CSV trajectory export stays outside the observed region so
         the metrics snapshot reflects the analysis runs alone. *)
      (match csv_trace_file with
      | None -> ()
      | Some path ->
        let c = Controller.create ~config:Feedback.individual_fair_share ~adjusters in
        let traj = Controller.trajectory c ~net ~r0 ~steps:400 in
        let names =
          Array.init n (fun i -> (Network.connection net i).Network.conn_name)
        in
        Trace.write_file ~path (Trace.csv_of_trajectory ~names traj);
        Printf.printf "trace written to %s\n" path);
      exit_outcomes outcomes
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the design matrix (aggregate, individual+FIFO, individual+Fair \
          Share) on a topology and report convergence, fairness, robustness and \
          stability. With --fault or --retries the designs run under the fault \
          injector and damping supervisor instead. Exits 3 if any run diverged, \
          4 if any failed to converge.")
    Term.(
      const run $ topology_term $ adjusters_term $ r0_term $ csv_trace_term
      $ fault_term $ fault_seed_term $ retries_term $ budget_term $ escape_term
      $ json_term $ jobs_term $ cache_term $ no_cache_term $ cache_dir_term
      $ trace_term $ metrics_term $ trace_stride_term $ trace_sched_term
      $ trace_det_term)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let rates_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "rates"; "r" ] ~docv:"RATES"
          ~doc:
            "Comma-separated Poisson rates (one per connection, or a single \
             value broadcast to all). Defaults to a stable sub-critical \
             pattern when --flows synthesizes the topology.")
  in
  let discipline_term =
    Arg.(
      value
      & opt
          (enum
             [
               ("fifo", Ffc_desim.Netsim.Fifo);
               ("fair-share", Ffc_desim.Netsim.Fs_priority);
               ("fair-queueing", Ffc_desim.Netsim.Fair_queueing);
             ])
          Ffc_desim.Netsim.Fifo
      & info [ "discipline"; "d" ] ~docv:"DISC"
          ~doc:"Queue discipline: fifo, fair-share or fair-queueing.")
  in
  let horizon_term =
    Arg.(value & opt float 20_000. & info [ "horizon" ] ~docv:"T" ~doc:"Simulated time.")
  in
  let seed_term =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let flows_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "flows" ] ~docv:"N"
          ~doc:
            "Synthesize a disjoint parking-lot topology (3 hops per lot) with \
             about $(docv) concurrent flows instead of --topology/--preset. \
             Built for scale runs: 10^5-10^6 flows on the struct-of-arrays \
             core.")
  in
  let shards_term =
    Arg.(
      value & opt int 0
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Simulate independent gateway domains in $(docv) groups over the \
             worker pool (0 = auto: a few per job). Results and traces are \
             byte-identical at any shard count.")
  in
  let buffer_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "buffer" ] ~docv:"B"
          ~doc:
            "Per-gateway buffer limit: arrivals beyond $(docv) packets in \
             system are dropped (default: infinite buffers).")
  in
  let run net_result rates_spec discipline horizon seed flows shards buffer_limit jobs
      trace metrics stride sched det =
    apply_jobs jobs;
    if shards < 0 then exit_err "--shards must be >= 0";
    let net =
      match (flows, net_result) with
      | Some n, Error _ ->
        if n < 4 then exit_err "--flows must be >= 4";
        Topologies.multi_parking_lot ~mu:1. ~latency:0.05 ~lots:(n / 4) ~hops:3 ()
      | Some _, Ok _ -> exit_err "--flows and --topology/--preset are mutually exclusive"
      | None, Ok net -> net
      | None, Error e -> exit_err e
    in
    let n = Network.num_connections net in
    let rates =
      match (rates_spec, flows) with
      | Some spec, _ -> (
        match String.split_on_char ',' spec with
        | [ one ] when n > 1 -> (
          match float_of_string_opt one with
          | Some r -> Array.make n r
          | None -> exit_err (Printf.sprintf "bad rate %S" one))
        | _ -> parse_rates spec n)
      | None, Some _ ->
        (* The E27 load: long flows at 0.25, cross flows around 0.24. *)
        Array.init n (fun i ->
            if i mod 4 = 0 then 0.25 else 0.21 +. (0.03 *. float_of_int (i mod 3)))
      | None, None -> exit_err "provide --rates (or --flows for the default pattern)"
    in
    let shards = if shards = 0 then 4 * Pool.effective_jobs () else shards in
    let subject =
      match flows with
      | Some _ -> Printf.sprintf "flows:%d" n
      | None -> Printf.sprintf "net:%d-conns" n
    in
    let result =
      with_obs ~command:"simulate" ~subject
        ~seeds:[ ("sim", seed) ]
        ~jobs ~trace ~metrics ~stride ~sched ~timing:(not det)
        (fun () ->
          Ffc_desim.Netsim.run ~net ~rates ~discipline ~seed ~shards ~jobs ?buffer_limit
            ~horizon ())
    in
    let module N = Ffc_desim.Netsim in
    Printf.printf "horizon %g (10%% warmup), seed %d, %d shards over %d components\n"
      horizon seed shards (N.components result);
    Printf.printf "events executed: %d\n\n" (N.events result);
    if n <= 32 then begin
      Format.printf "%a@." Network.pp net;
      for a = 0 to Network.num_gateways net - 1 do
        Printf.printf "gateway %s: total mean queue %.4f\n"
          (Network.gateway net a).Network.gw_name
          (N.total_mean_queue result ~gw:a);
        List.iter
          (fun i ->
            Printf.printf "  conn %-10s Q = %-10.4f\n"
              (Network.connection net i).Network.conn_name
              (N.mean_queue result ~gw:a ~conn:i))
          (Network.connections_at_gateway net a)
      done;
      print_newline ();
      for i = 0 to n - 1 do
        Printf.printf
          "conn %-10s throughput = %-8.4f mean delay = %-8.4f (+/- %.4f)\n"
          (Network.connection net i).Network.conn_name
          (N.throughput result ~conn:i)
          (N.delay_mean result ~conn:i)
          (N.delay_ci95 result ~conn:i)
      done
    end
    else begin
      (* Scale summary: per-connection dumps would be megabytes at 10^5
         flows, so aggregate instead. *)
      let deliveries = ref 0 and drops = ref 0 in
      let tput = ref 0. and delay = ref 0. and counted = ref 0 in
      for i = 0 to n - 1 do
        deliveries := !deliveries + N.deliveries result ~conn:i;
        drops := !drops + N.drops result ~conn:i;
        tput := !tput +. N.throughput result ~conn:i;
        if N.deliveries result ~conn:i > 0 then begin
          delay := !delay +. N.delay_mean result ~conn:i;
          incr counted
        end
      done;
      Printf.printf "%d connections over %d gateways (%d independent domains)\n" n
        (Network.num_gateways net) (N.components result);
      Printf.printf "delivered  %d packets  (dropped %d)\n" !deliveries !drops;
      Printf.printf "aggregate throughput  %.2f pkts/time\n" !tput;
      if !counted > 0 then
        Printf.printf "mean end-to-end delay  %.4f (over %d delivering connections)\n"
          (!delay /. float_of_int !counted)
          !counted
    end
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Packet-level discrete-event simulation of a topology on the \
          struct-of-arrays desim core: timing-wheel scheduler, preallocated \
          packet pool, independent gateway domains sharded over the worker \
          pool with byte-identical results at any --shards/--jobs.")
    Term.(
      const run $ topology_term $ rates_term $ discipline_term $ horizon_term
      $ seed_term $ flows_term $ shards_term $ buffer_term
      $ jobs_term $ trace_term $ metrics_term $ trace_stride_term
      $ trace_sched_term $ trace_det_term)

(* ------------------------------------------------------------------ *)
(* closed-loop                                                         *)
(* ------------------------------------------------------------------ *)

let closed_loop_cmd =
  let discipline_term =
    Arg.(
      value
      & opt
          (enum
             [
               ("fifo", Ffc_closedloop.Closed_loop.Fifo);
               ("fair-share", Ffc_closedloop.Closed_loop.Fs_priority);
               ("fair-queueing", Ffc_closedloop.Closed_loop.Fair_queueing);
             ])
          Ffc_closedloop.Closed_loop.Fs_priority
      & info [ "discipline"; "d" ] ~docv:"DISC"
          ~doc:"Queue discipline: fifo, fair-share or fair-queueing.")
  in
  let style_term =
    Arg.(
      value
      & opt
          (enum
             [
               ("aggregate", Congestion.Aggregate);
               ("individual", Congestion.Individual);
             ])
          Congestion.Individual
      & info [ "style" ] ~docv:"STYLE" ~doc:"Feedback style: aggregate or individual.")
  in
  let interval_term =
    Arg.(
      value & opt float 300.
      & info [ "interval" ] ~docv:"T" ~doc:"Simulated time between rate updates.")
  in
  let updates_term =
    Arg.(value & opt int 100 & info [ "updates" ] ~docv:"K" ~doc:"Number of updates.")
  in
  let seed_term =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let run net_result specs style discipline interval updates seed =
    match net_result with
    | Error e -> exit_err e
    | Ok net ->
      let n = Network.num_connections net in
      let adjusters = resolve_adjusters specs n in
      let r =
        Ffc_closedloop.Closed_loop.run ~net ~discipline ~style
          ~signal:Signal.linear_fractional ~adjusters ~r0:(Array.make n 0.05)
          ~interval ~updates ~seed ()
      in
      Format.printf "%a@." Network.pp net;
      Printf.printf "closed loop: %d updates every %g time units\n\n" updates interval;
      (* Rate trajectories, one glyph per connection. *)
      let canvas = Ascii_plot.canvas ~width:64 ~height:14 () in
      for i = 0 to Stdlib.min (n - 1) 8 do
        Ascii_plot.plot_series canvas
          ~glyph:(Char.chr (Char.code 'a' + i))
          (Array.map (fun rates -> rates.(i)) r.Ffc_closedloop.Closed_loop.rates)
      done;
      print_string
        (Ascii_plot.render ~title:"measured-feedback rate trajectories"
           ~x_label:"update" ~y_label:"rate" canvas);
      Printf.printf "\ntail-mean rates:\n";
      Array.iteri
        (fun i rate ->
          Printf.printf "  conn %-10s %.4f\n"
            (Network.connection net i).Network.conn_name rate)
        r.Ffc_closedloop.Closed_loop.mean_tail_rates
  in
  Cmd.v
    (Cmd.info "closed-loop"
       ~doc:
         "Run flow control end-to-end over the packet simulator: rates adjust \
          from measured queue averages instead of the analytic model.")
    Term.(
      const run $ topology_term $ adjusters_term $ style_term $ discipline_term
      $ interval_term $ updates_term $ seed_term)

(* ------------------------------------------------------------------ *)
(* topology                                                            *)
(* ------------------------------------------------------------------ *)

let topology_cmd =
  let seed_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "random" ] ~docv:"SEED" ~doc:"Emit a random topology instead.")
  in
  let run net_result seed =
    match seed with
    | Some seed ->
      let rng = Rng.create seed in
      print_string
        (Dsl.to_string (Topologies.random ~rng ~gateways:4 ~connections:5 ~max_path:3 ()))
    | None -> (
      match net_result with
      | Ok net -> print_string (Dsl.to_string net)
      | Error e -> exit_err e)
  in
  Cmd.v
    (Cmd.info "topology" ~doc:"Print a topology in the DSL format.")
    Term.(const run $ topology_term $ seed_term)

(* ------------------------------------------------------------------ *)
(* cache                                                               *)
(* ------------------------------------------------------------------ *)

let cache_cmd =
  let action =
    Arg.(
      required
      & pos 0 (some (enum [ ("stats", `Stats); ("clear", `Clear) ])) None
      & info [] ~docv:"ACTION" ~doc:"$(b,stats) or $(b,clear).")
  in
  let run action cache_dir =
    let store = Ffc_cache.Store.create ?root:cache_dir () in
    match action with
    | `Clear ->
      Ffc_cache.Store.clear store;
      Printf.printf "cleared %s\n" (Ffc_cache.Store.root store)
    | `Stats ->
      let ds = Ffc_cache.Store.disk_stats store in
      Printf.printf "cache dir   %s\n" (Ffc_cache.Store.root store);
      Printf.printf "layout      %s\n" Ffc_cache.Store.layout_version;
      Printf.printf "key schema  %s\n" Ffc_cache.Key.schema_version;
      Printf.printf "entries     %d\n" ds.Ffc_cache.Store.entries;
      Printf.printf "bytes       %d\n" ds.Ffc_cache.Store.bytes;
      List.iter
        (fun (tier, n) -> Printf.printf "  tier %-22s %d\n" tier n)
        ds.Ffc_cache.Store.tiers;
      (match Ffc_cache.Cache.read_run_stats store with
      | Some (c, ratio) ->
        (* One greppable line: the CI smoke check asserts on hit_ratio. *)
        Printf.printf
          "last run: hits=%d misses=%d stores=%d evictions=%d hit_ratio=%.6f\n"
          c.Ffc_cache.Cache.hits c.Ffc_cache.Cache.misses
          c.Ffc_cache.Cache.stores c.Ffc_cache.Cache.evictions ratio
      | None -> Printf.printf "last run: (none recorded)\n")
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect ($(b,stats)) or delete ($(b,clear)) the content-addressed \
          result cache. $(b,clear) removes only the cache's own versioned \
          entry tree and run-stats file, never sibling files.")
    Term.(const run $ action $ cache_dir_term)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let socket_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Bind a Unix-domain socket at $(docv) and serve clients.")
  in
  let script_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:
            "Serve the request lines in $(docv) ($(b,-) = stdin) in-process \
             and print the replies — no socket. Blank lines and # comments \
             are skipped.")
  in
  let snapshot_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"PATH"
          ~doc:
            "Crash safety: atomically publish the service state to $(docv) \
             every --snapshot-every mutations and at shutdown; on startup, \
             recover from an existing snapshot there.")
  in
  let snapshot_every_term =
    Arg.(
      value & opt int 16
      & info [ "snapshot-every" ] ~docv:"K"
          ~doc:"Auto-snapshot every $(docv)-th committed join/leave.")
  in
  let b_ss_term =
    Arg.(
      value & opt float 0.5
      & info [ "b-ss" ] ~docv:"B" ~doc:"Steady feedback signal in (0,1).")
  in
  let epsilon_term =
    Arg.(
      value & opt float 1e-6
      & info [ "epsilon" ] ~docv:"E"
          ~doc:"Admission slack: admit only if Theorem-5 min-ratio >= 1-$(docv).")
  in
  let min_rate_term =
    Arg.(
      value & opt float 0.
      & info [ "min-rate" ] ~docv:"R"
          ~doc:"Reject a newcomer whose admitted fair rate would be below $(docv).")
  in
  let degrade_term =
    Arg.(
      value
      & opt (t3 ~sep:':' float float float) (0.5, 2., 8.)
      & info [ "degrade" ] ~docv:"INC:CACHED:SHED"
          ~doc:
            "Degradation-ladder backlog thresholds (logical seconds): full \
             resolve below INC, incremental patch below CACHED, cached \
             estimate below SHED, shed adds beyond.")
  in
  let timeout_term =
    Arg.(
      value & opt float 0.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-solve wall-clock timeout (0 = off). Leave off for \
             byte-deterministic decision logs.")
  in
  let svc_retries_term =
    Arg.(
      value & opt int 2
      & info [ "svc-retries" ] ~docv:"K"
          ~doc:
            "Retries per failed solve, with deterministic jittered \
             exponential backoff, before degrading a tier.")
  in
  let backoff_term =
    Arg.(
      value & opt float 0.05
      & info [ "backoff" ] ~docv:"SECONDS" ~doc:"Base backoff delay.")
  in
  let seed_term =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED" ~doc:"Backoff-jitter seed.")
  in
  let max_sessions_term =
    Arg.(
      value & opt int 64
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:
            "Concurrent-session cap: connections past $(docv) receive one \
             shed line and are closed at accept.")
  in
  let idle_timeout_term =
    Arg.(
      value & opt float 0.
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Close sessions with no traffic for $(docv) seconds (0 = never).")
  in
  let run net_result specs socket script snapshot_path snapshot_every b_ss
      epsilon min_rate (d_inc, d_cached, d_shed) timeout svc_retries backoff seed
      max_sessions idle_timeout fault_specs fault_seed retries escape jobs cache
      no_cache cache_dir trace metrics stride sched det =
    apply_jobs jobs;
    match net_result with
    | Error e -> exit_err e
    | Ok net ->
      let n = Network.num_connections net in
      let adjusters = resolve_adjusters specs n in
      let plan = resolve_plan fault_specs ~seed:fault_seed ~net in
      if svc_retries < 0 then exit_err "--svc-retries must be >= 0";
      if retries < 0 then exit_err "--retries must be >= 0";
      if max_sessions < 1 then exit_err "--max-sessions must be >= 1";
      if idle_timeout < 0. then exit_err "--idle-timeout must be >= 0";
      let config =
        {
          Ffc_service.Admission.default_config with
          b_ss;
          epsilon;
          min_rate;
          backlog_incremental = d_inc;
          backlog_cached = d_cached;
          backlog_shed = d_shed;
          timeout;
          retries = svc_retries;
          backoff_base = backoff;
          (* Really sleeping between retries only makes sense with real
             clients on a socket; script replays stay instant. *)
          sleep_backoff = script = None;
          seed;
          plan;
          sup_retries = retries;
          escape;
        }
      in
      let controller =
        Controller.create ~config:Feedback.individual_fair_share ~adjusters
      in
      let engine =
        try Ffc_service.Admission.create ~config controller ~net
        with Invalid_argument msg -> exit_err msg
      in
      let server =
        Ffc_service.Server.create ?snapshot_path ~snapshot_every engine
      in
      (match Ffc_service.Server.recover server with
      | Ok false -> ()
      | Ok true ->
        Printf.eprintf "ffc serve: recovered %d mutations (seq %d) from %s\n%!"
          (Ffc_service.Admission.mutations engine)
          (Ffc_service.Admission.seq engine)
          (Option.get snapshot_path)
      | Error e ->
        Exit_code.fail_service (Printf.sprintf "cannot recover snapshot: %s" e));
      let subject = Printf.sprintf "service(%d gw, %d conn)" (Network.num_gateways net) n in
      with_cache ~cache ~no_cache ~cache_dir (fun () ->
          (* [force]: a daemon always carries a metrics registry, even
             with no --trace/--metrics, so the protocol's live [metrics]
             and latency histograms work out of the box. *)
          with_obs ~command:"serve" ~subject ~adjusters:specs
            ~seeds:[ ("service", seed); ("fault", fault_seed) ]
            ~faults:(Fault.describe plan) ~force:true ~jobs ~trace ~metrics
            ~stride ~sched ~timing:(not det)
            (fun () ->
              match (script, socket) with
              | Some _, Some _ -> exit_err "--script and --socket are mutually exclusive"
              | None, None -> exit_err "provide --socket PATH or --script FILE"
              | Some file, None ->
                let text =
                  if file = "-" then In_channel.input_all In_channel.stdin
                  else In_channel.with_open_text file In_channel.input_all
                in
                let lines = String.split_on_char '\n' text in
                List.iter print_endline
                  (Ffc_service.Server.run_script server lines)
              | None, Some sock -> (
                try
                  Ffc_service.Server.serve ~max_sessions ~idle_timeout server
                    ~socket:sock
                with Unix.Unix_error (e, fn, _) ->
                  Exit_code.fail_service
                    (Printf.sprintf "socket %s: %s (%s)" sock
                       (Unix.error_message e) fn))))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the online gateway service: a long-lived admission-control \
          daemon over a Unix-domain socket (or an in-process --script \
          replay). Clients add/remove flows and query supervised health; \
          every add runs the Theorem-5 + spectral-radius admission test, \
          overload degrades gracefully down the full > incremental > cached \
          > shed ladder, and state snapshots atomically for crash recovery. \
          Exits 5 when recovery or the socket fails.")
    Term.(
      const run $ topology_term $ adjusters_term $ socket_term $ script_term
      $ snapshot_term $ snapshot_every_term $ b_ss_term $ epsilon_term
      $ min_rate_term $ degrade_term $ timeout_term $ svc_retries_term
      $ backoff_term $ seed_term $ max_sessions_term $ idle_timeout_term
      $ fault_term $ fault_seed_term $ retries_term $ escape_term $ jobs_term
      $ cache_term $ no_cache_term $ cache_dir_term $ trace_term $ metrics_term
      $ trace_stride_term $ trace_sched_term $ trace_det_term)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let report_cmd =
    let file_term =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"FILE"
            ~doc:"JSONL trace written by --trace ($(b,-) = stdin).")
    in
    let json_term =
      Arg.(
        value & flag
        & info [ "json" ]
            ~doc:"Emit the aggregate as one JSON line instead of a table.")
    in
    let run file json =
      let acc = Ffc_obs.Trace_report.create () in
      let feed ic =
        let rec go () =
          match In_channel.input_line ic with
          | None -> ()
          | Some line ->
            Ffc_obs.Trace_report.add_line acc line;
            go ()
        in
        go ()
      in
      (if file = "-" then feed In_channel.stdin
       else
         try In_channel.with_open_text file feed
         with Sys_error e -> exit_err e);
      if json then print_endline (Ffc_obs.Trace_report.render_json acc)
      else print_string (Ffc_obs.Trace_report.render acc)
    in
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Aggregate a JSONL trace into a per-phase table: span counts, \
            inclusive wall time and minor allocations per phase, plus \
            service decisions tallied by tier — the numbers to cross-check \
            against the daemon's own stats counters.")
      Term.(const run $ file_term $ json_term)
  in
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Inspect JSONL traces produced by --trace (see $(b,report)).")
    [ report_cmd ]

(* ------------------------------------------------------------------ *)
(* bench                                                               *)
(* ------------------------------------------------------------------ *)

let bench_cmd =
  let diff_cmd =
    let old_term =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"OLD" ~doc:"Baseline BENCH.json.")
    in
    let new_term =
      Arg.(
        required
        & pos 1 (some string) None
        & info [] ~docv:"NEW" ~doc:"Candidate BENCH.json.")
    in
    let tolerance_term =
      Arg.(
        value
        & opt_all string []
        & info [ "tolerance" ] ~docv:"[NAME=]PCT"
            ~doc:
              "Allowed ns/run slowdown in percent: a bare $(b,PCT) sets the \
               default for every kernel (initially 100), $(b,NAME=PCT) \
               overrides one kernel (split on the last $(b,=)). Repeatable.")
    in
    let run old_path new_path tolerance_specs =
      exit (Bench_diff.run ~old_path ~new_path ~tolerance_specs)
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare the per-kernel ns/run of two BENCH.json files and print \
            the delta table. Exits 6 when any kernel slowed down past its \
            tolerance or disappeared — the CI perf-regression gate.")
      Term.(const run $ old_term $ new_term $ tolerance_term)
  in
  Cmd.group
    (Cmd.info "bench"
       ~doc:"Benchmark bookkeeping (see $(b,diff) — the perf-regression gate).")
    [ diff_cmd ]

(* ------------------------------------------------------------------ *)
(* drive                                                               *)
(* ------------------------------------------------------------------ *)

let drive_cmd =
  let socket_term =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Socket of a running ffc serve.")
  in
  let script_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:
            "Send the raw request lines in $(docv) ($(b,-) = stdin) instead \
             of generating churn; blank lines and # comments are skipped.")
  in
  let arrivals_term =
    Arg.(
      value & opt int 64
      & info [ "arrivals" ] ~docv:"N" ~doc:"Poisson arrivals to generate.")
  in
  let rate_term =
    Arg.(
      value & opt float 4.
      & info [ "rate" ] ~docv:"LAMBDA" ~doc:"Poisson arrival rate.")
  in
  let size_dist_term =
    Arg.(
      value
      & opt string "exp:1"
      & info [ "size-dist" ] ~docv:"SPEC"
          ~doc:
            "Document-size distribution: const:S, exp:MEAN, uniform:LO:HI or \
             pareto:ALPHA:XMIN.")
  in
  let seed_term =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Churn stream seed.")
  in
  let query_every_term =
    Arg.(
      value & opt int 0
      & info [ "query-every" ] ~docv:"K"
          ~doc:"Also query supervised health every $(docv)-th request (0 = never).")
  in
  let shutdown_term =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Send a final shutdown once the churn is done.")
  in
  let wait_term =
    Arg.(
      value & opt float 5.
      & info [ "wait" ] ~docv:"SECONDS"
          ~doc:"Keep retrying the initial connect for up to $(docv) seconds.")
  in
  let clients_term =
    Arg.(
      value & opt int 1
      & info [ "clients" ] ~docv:"N"
          ~doc:
            "Multiplex the request stream over $(docv) concurrent sessions of \
             the daemon, round-robin in lockstep (each request waits for its \
             reply before the next is sent), so the global request order — \
             and the daemon's decision log — stays deterministic.")
  in
  let batch_term =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"K"
          ~doc:
            "Coalesce consecutive churn adds into batch ... end brackets of \
             up to $(docv) members — one rank-$(docv) admission solve each. A \
             whole bracket rides a single session.")
  in
  let connect ~socket ~wait =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let deadline = Unix.gettimeofday () +. wait in
    let rec go () =
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> ()
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
        when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.05;
        go ()
      | exception Unix.Unix_error (e, _, _) ->
        Exit_code.fail_service
          (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e))
    in
    go ();
    (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  in
  let run socket script arrivals rate size_dist_spec seed query_every shutdown
      wait clients batch =
    if clients < 1 then exit_err "--clients must be >= 1";
    if batch < 1 then exit_err "--batch must be >= 1";
    if batch > 1024 then exit_err "--batch must be <= 1024 (the server's bracket cap)";
    (* One connection per client session.  Requests rotate over them in
       lockstep — every request is answered before the next is sent — so
       the order the daemon reads them in is exactly the order they were
       issued, whatever session each one rides. *)
    let conns = Array.init clients (fun _ -> connect ~socket ~wait) in
    let next = ref 0 in
    let pick () =
      let c = conns.(!next) in
      next := (!next + 1) mod clients;
      c
    in
    let recv ic =
      match In_channel.input_line ic with
      | Some reply ->
        print_endline reply;
        reply
      | None -> Exit_code.fail_service "server closed the connection"
    in
    let send_on (ic, oc) line =
      output_string oc (line ^ "\n");
      flush oc;
      recv ic
    in
    let send line = send_on (pick ()) line in
    (* A batch bracket is session state, so the whole bracket rides one
       connection: write every line, then collect one reply per member
       plus the summary.  Each non-silent line inside a bracket produces
       exactly one reply (buffered adds reply at [end]), so the count is
       [lines - 1] — the opening [batch] alone stays silent. *)
    let send_batch lines =
      let ic, oc = pick () in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      flush oc;
      List.init (max 0 (List.length lines - 1)) (fun _ -> recv ic)
    in
    let send_shutdown () = ignore (send_on conns.(0) "shutdown" : string) in
    match script with
    | Some file ->
      let text =
        if file = "-" then In_channel.input_all In_channel.stdin
        else In_channel.with_open_text file In_channel.input_all
      in
      let lines = String.split_on_char '\n' text in
      (* Bracket-aware replay: a [batch ... end] unit must ride one
         session (and is pipelined — member replies only come at [end]),
         everything else rotates line by line. *)
      let bracket = ref None in
      List.iter
        (fun line ->
          let t = String.trim line in
          if t <> "" && t.[0] <> '#' then
            match !bracket with
            | None ->
              if t = "batch" then bracket := Some [ t ]
              else ignore (send t : string)
            | Some acc ->
              if List.length acc > 1025 then
                exit_err "script batch bracket exceeds the 1024-member cap"
              else if t = "end" then begin
                bracket := None;
                ignore (send_batch (List.rev (t :: acc)) : string list)
              end
              else bracket := Some (t :: acc))
        lines;
      (match !bracket with
      | Some _ ->
        prerr_endline
          "ffc drive: warning: script ends inside a batch bracket; the \
           bracket was not sent (an unterminated bracket is never applied)"
      | None -> ());
      if shutdown then send_shutdown ()
    | None ->
      let size_dist =
        match Ffc_service.Churn.parse_size_dist size_dist_spec with
        | Ok d -> d
        | Error e -> exit_err e
      in
      if arrivals < 0 then exit_err "--arrivals must be >= 0";
      if rate <= 0. then exit_err "--rate must be positive";
      let stats =
        Ffc_service.Churn.run ~query_every ~batch ~send_batch ~seed ~rate
          ~arrivals ~size_dist ~send ()
      in
      if shutdown then send_shutdown ();
      (* One greppable summary line for scripts and the CI smoke job. *)
      Printf.printf
        "drive: arrivals=%d admits=%d rejects=%d sheds=%d departures=%d \
         queries=%d errors=%d min_min_ratio=%s last_time=%s\n"
        stats.Ffc_service.Churn.arrivals stats.Ffc_service.Churn.admits
        stats.Ffc_service.Churn.rejects stats.Ffc_service.Churn.sheds
        stats.Ffc_service.Churn.departures stats.Ffc_service.Churn.queries
        stats.Ffc_service.Churn.errors
        (match stats.Ffc_service.Churn.min_min_ratio with
        | None -> "none"
        | Some r -> Ffc_obs.Jsonf.float_rt r)
        (Ffc_obs.Jsonf.float_rt stats.Ffc_service.Churn.last_time)
  in
  Cmd.v
    (Cmd.info "drive"
       ~doc:
         "Drive a running ffc serve daemon: either replay a request script \
          or generate Poisson churn with general document sizes \
          (Gromoll-Williams), removing each admitted flow once its document \
          has been served at the admitted rate. Prints every response line \
          plus a final summary. --clients N multiplexes the stream over N \
          concurrent sessions in deterministic lockstep; --batch K coalesces \
          adds into batch ... end brackets.")
    Term.(
      const run $ socket_term $ script_term $ arrivals_term $ rate_term
      $ size_dist_term $ seed_term $ query_every_term $ shutdown_term
      $ wait_term $ clients_term $ batch_term)

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "ffc" ~version:"1.0.0"
      ~doc:
        "Feedback flow control: a reproduction of Shenker's SIGCOMM 1990 \
         theoretical analysis."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            exp_cmd; analyze_cmd; simulate_cmd; closed_loop_cmd; topology_cmd;
            cache_cmd; serve_cmd; drive_cmd; trace_cmd; bench_cmd;
          ]))
