(* perfbench — end-to-end and per-layer benchmark of the ffc gateway
   daemon, the packet simulator and the experiment registry.

     main.exe --workload NAME|all --seed N --seconds S --trace 0|1 [--out FILE]
     main.exe compare OLD NEW      compare two --out files (same host only)
     main.exe spec                 write BENCHMARK.json

   The last line of a single-workload run is one JSON object: correct,
   attempted, failed and the metrics of the mode (end-to-end untraced,
   per-layer traced).  See README.md. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]\n\
    \                [--out FILE] [--ffc PATH]\n\
    \       main.exe compare OLD NEW\n\
    \       main.exe spec";
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable out : string option;
  mutable ffc : string;
}

let parse args =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = float_of_int Spec.run_seconds;
      trace = false;
      out = None;
      ffc = "_build/default/bin/ffc_cli.exe";
    }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: t -> o.workload <- Some v; go t
    | "--seed" :: v :: t -> o.seed <- int_of_string v; go t
    | "--seconds" :: v :: t -> o.seconds <- float_of_string v; go t
    | "--trace" :: ("0" | "1" as v) :: t -> o.trace <- v = "1"; go t
    | "--out" :: v :: t -> o.out <- Some v; go t
    | "--ffc" :: v :: t -> o.ffc <- v; go t
    | _ -> usage ()
  in
  (try go args with Failure _ -> usage ());
  o

let run_workload o name ~trace =
  let r = Report.create () in
  (match name with
  | "churn-dense" ->
    Churn_wl.run Churn_wl.dense ~ffc:o.ffc ~seed:o.seed ~seconds:o.seconds ~trace r
  | "churn-sparse" ->
    Churn_wl.run Churn_wl.sparse ~ffc:o.ffc ~seed:o.seed ~seconds:o.seconds ~trace r
  | "desim-scale" -> Desim_wl.run ~seed:o.seed ~seconds:o.seconds ~trace r
  | "exp-all" -> Exp_wl.run ~ffc:o.ffc ~trace r
  | _ -> usage ());
  Report.check_finite r;
  let names =
    if trace then List.map (fun (n, u, _) -> (n, u)) Spec.per_layer
    else List.map (fun (n, u, _, _) -> (n, u)) Spec.end_to_end
  in
  let selected = Report.select r names in
  Report.print_human ~workload:name ~trace r;
  (match o.out with
  | Some path ->
    Report.save ~path ~fingerprint:(Host.fingerprint ()) ~workload:name ~seed:o.seed ~trace
      selected
  | None -> ());
  print_endline (Report.result_json r selected);
  Report.correct r

let bench o =
  if not (Sys.file_exists o.ffc) then begin
    Printf.eprintf "perfbench: %s not found (build it first: bash perfbench/run.sh)\n"
      o.ffc;
    exit 2
  end;
  Ffc_numerics.Pool.set_default_jobs Host.jobs;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter (fun (k, v) -> Printf.printf "fingerprint %s = %s\n" k v) (Host.fingerprint ());
  let runs =
    match o.workload with
    | Some "all" ->
      List.concat_map (fun (n, _) -> [ (n, false); (n, true) ]) Spec.workloads
    | Some n when List.mem_assoc n Spec.workloads -> [ (n, o.trace) ]
    | _ -> usage ()
  in
  let ok =
    Fun.protect
      ~finally:(fun () ->
        Daemon.stop_all ();
        Host.cleanup ())
      (fun () ->
        List.for_all Fun.id (List.map (fun (n, trace) -> run_workload o n ~trace) runs))
  in
  exit (if ok then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> exit (if Report.compare_files a b then 0 else 3)
  | [ "spec" ] ->
    Out_channel.with_open_text "BENCHMARK.json" (fun oc -> output_string oc (Spec.json ()))
  | args -> bench (parse args)
