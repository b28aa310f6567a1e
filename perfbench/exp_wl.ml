(* The exp-all workload: every paper experiment through
   [Registry.run_all ~jobs:1], the work behind `ffc exp all`, with the
   result cache off. *)

module R = Ffc_experiments.Registry
module E = Ffc_experiments.Exp_common

(* Experiments that take over a second each on a 2-core host; the rest
   are cheap enough to re-render on every run as a check. *)
let heavy = [ "E21"; "E23"; "E24"; "E25"; "E27" ]

let cheap () = List.filter (fun e -> not (List.mem e.E.id heavy)) R.all

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec matches i k = k = n || (hay.[i + k] = needle.[k] && matches i (k + 1)) in
  let rec go i = i + n <= h && (matches i 0 || go (i + 1)) in
  go 0

(* CLI start-up: spawn `ffc exp list` and wait for it to exit. *)
let cli_startup ~ffc =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = Host.now () in
  let pid = Unix.create_process ffc [| ffc; "exp"; "list" |] null null null in
  let _, status = Unix.waitpid [] pid in
  let dt = Host.now () -. t0 in
  Unix.close null;
  (dt, status = Unix.WEXITED 0)

let run_all () = Host.time (fun () -> R.run_all ~jobs:Host.jobs ())

let render_each exps =
  List.map
    (fun e ->
      let out, dt = Host.time (fun () -> R.run_one e.E.id) in
      (e.E.id, ((match out with Ok text -> text | Error msg -> msg), dt)))
    exps

let run ~ffc ~trace r =
  let nexp = float_of_int (List.length R.all) in
  if not trace then begin
    let starts = List.init 41 (fun _ -> cli_startup ~ffc) in
    Report.check r "cli_starts" (List.for_all snd starts) "ffc exp list exits 0";
    let c0 = Host.cpu_self () in
    let out, dt = run_all () in
    let cpu = Host.cpu_self () -. c0 in
    Printf.printf "[exp-all] run_all %.3f s wall, %.3f s cpu\n" dt cpu;
    Report.metric r "ops_per_cpu_s" "1/cpu-s" (nexp /. cpu);
    Report.metric r "peak_rss_mb" "MB" (Host.peak_rss_mb ());
    Report.metric r "setup_s" "s" (Bstats.median (List.map fst starts));
    List.iter
      (fun (id, (text, _)) ->
        Report.check r ("render." ^ id) (contains out text)
          "serial render inside run_all output")
      (render_each (cheap ()));
    Report.count_checks r
  end
  else begin
    let out, dt = run_all () in
    Report.metric r "exp_all_s" "s" dt;
    let serial = render_each R.all in
    List.iter
      (fun (id, (_, s)) -> Report.metric r (Printf.sprintf "exp.%s_s" id) "s" s)
      serial;
    let times = List.map (fun (_, (_, s)) -> s) serial in
    Report.metric r "exp.critical_path_s" "s" (List.fold_left Float.max 0. times);
    Report.metric r "exp.parallel_efficiency" "ratio"
      (Bstats.sum times /. (float_of_int Host.jobs *. dt));
    let joined = String.concat "\n" (List.map (fun (_, (text, _)) -> text) serial) in
    Report.check r "run_all_equals_serial" (joined = out)
      (Printf.sprintf "%d experiments, %d bytes" (List.length serial) (String.length out));
    (* Tracing cost on the cheap experiments: traced renders against the
       untraced serial times above. *)
    let trace_path = Host.scratch_file "exp.trace" in
    let sink = Ffc_obs.Sink.file trace_path in
    let ctx = Ffc_obs.Ctx.make ~sink () in
    let traced = Ffc_obs.Ctx.with_ctx ctx (fun () -> render_each (cheap ())) in
    Ffc_obs.Sink.close sink;
    let untraced_s =
      Bstats.sum (List.map (fun (id, _) -> snd (List.assoc id serial)) traced)
    in
    let traced_s = Bstats.sum (List.map (fun (_, (_, s)) -> s) traced) in
    Report.metric r "obs.trace_overhead_frac" "frac" ((traced_s /. untraced_s) -. 1.);
    List.iter
      (fun (id, (text, _)) ->
        Report.check r ("traced_render." ^ id)
          (text = fst (List.assoc id serial))
          "traced = untraced")
      traced;
    List.iter
      (fun (name, ms) -> Report.metric r ("self_ms." ^ name) "ms" ms)
      (Bstats.self_times (Host.span_events trace_path));
    Report.count_checks r
  end
