(* What one workload run produces: named metrics with units, named
   correctness checks, and the attempted/failed operation counts. *)

type t = {
  mutable metrics : (string * float * string) list;  (** newest first *)
  mutable checks : (string * bool * string) list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
}

let create () = { metrics = []; checks = []; attempted = 0; failed = 0 }

let metric r name unit_ value = r.metrics <- (name, value, unit_) :: r.metrics

let check r name ok detail = r.checks <- (name, ok, detail) :: r.checks

let count r ~attempted ~failed =
  r.attempted <- r.attempted + attempted;
  r.failed <- r.failed + failed

(* For workloads whose operations are checked results: each check is
   one attempted operation, each failed check one failure. *)
let count_checks r =
  let failed = List.length (List.filter (fun (_, ok, _) -> not ok) r.checks) in
  count r ~attempted:(List.length r.checks) ~failed

let find r name =
  List.find_map (fun (n, v, _) -> if n = name then Some v else None) r.metrics

let correct r = List.for_all (fun (_, ok, _) -> ok) r.checks

(* Full precision: results are compared as measured, digit for digit. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Keep only [names] (in that order), adding 0 for a metric this
   workload does not exercise. *)
let select r names =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
      | Some (_, v, _) -> (name, v, unit_)
      | None -> (name, 0., unit_))
    names

(* A non-finite metric is a benchmark fault: it fails the run. *)
let check_finite r =
  let bad = List.filter (fun (_, v, _) -> not (Float.is_finite v)) r.metrics in
  check r "finite_metrics" (bad = [])
    (String.concat " " (List.map (fun (n, _, _) -> n) bad));
  r.metrics <-
    List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.), u)) r.metrics

let result_json r selected =
  let metrics =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Ffc_obs.Jsonf.string n)
          (num v) (Ffc_obs.Jsonf.string u))
      selected
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) (max 1 r.attempted) r.failed (String.concat ", " metrics)

let print_human ~workload ~trace r =
  List.iter
    (fun (n, ok, detail) ->
      Printf.printf "[%s%s] check %-28s %s  %s\n" workload
        (if trace then "/traced" else "")
        n
        (if ok then "ok" else "FAIL")
        detail)
    (List.rev r.checks);
  List.iter
    (fun (n, v, u) ->
      Printf.printf "[%s%s] %-40s %s %s\n" workload
        (if trace then "/traced" else "")
        n (num v) u)
    (List.rev r.metrics)

(* A saved result: the host fingerprint, then one metric per line, as
   tab-separated text. *)
let save ~path ~fingerprint ~workload ~seed ~trace selected =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun (k, v) -> Printf.fprintf oc "fingerprint\t%s\t%s\n" k v) fingerprint;
      Printf.fprintf oc "run\tworkload\t%s\nrun\tseed\t%d\nrun\ttrace\t%b\n" workload seed
        trace;
      List.iter
        (fun (n, v, u) -> Printf.fprintf oc "metric\t%s\t%s\t%s\n" n (num v) u)
        selected)

let load path =
  let lines = In_channel.with_open_text path In_channel.input_lines in
  List.fold_left
    (fun (fp, ms) line ->
      match String.split_on_char '\t' line with
      | [ "fingerprint"; k; v ] -> ((k, v) :: fp, ms)
      | [ "metric"; n; v; u ] -> (fp, (n, float_of_string v, u) :: ms)
      | _ -> (fp, ms))
    ([], []) lines
  |> fun (fp, ms) -> (List.sort compare fp, List.rev ms)

(* Compare two saved results; refuses when the host fingerprints
   differ, since a number from another host measures the host.  The
   revision is recorded but not compared: it is what a comparison is
   about. *)
let compare_files a b =
  let host (fp, ms) = (List.filter (fun (k, _) -> k <> "rev") fp, ms) in
  let fa, ma = host (load a) and fb, mb = host (load b) in
  if fa <> fb then begin
    Printf.printf "refusing to compare: host fingerprints differ\n";
    List.iter
      (fun (k, v) ->
        match List.assoc_opt k fb with
        | Some v' when v' = v -> ()
        | v' ->
          Printf.printf "  %s: %s vs %s\n" k v (Option.value v' ~default:"(missing)"))
      fa;
    false
  end
  else begin
    List.iter
      (fun (n, va, u) ->
        match List.find_opt (fun (n', _, _) -> n' = n) mb with
        | Some (_, vb, _) ->
          let delta = if va = 0. then 0. else 100. *. (vb -. va) /. Float.abs va in
          Printf.printf "%-40s %14s -> %14s %-6s %+7.2f%%\n" n (num va) (num vb) u delta
        | None -> Printf.printf "%-40s %14s -> (missing)\n" n (num va))
      ma;
    true
  end
