(* Host and process facts: clocks, /proc readings, the host
   fingerprint recorded with every result, and the scratch directory. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU seconds (user + system, all domains) this process has used. *)
let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A "Key:   123 kB" field of /proc/<pid>/status, in kB. *)
let status_kb pid key =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match read_file path with
  | exception Sys_error _ -> None
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.sub line 0 i = key ->
             let rest = String.sub line (i + 1) (String.length line - i - 1) in
             String.split_on_char ' ' (String.trim rest) |> List.hd |> float_of_string_opt
           | _ -> None)

let peak_rss_mb ?(pid = "self") () =
  match status_kb pid "VmHWM" with Some kb -> kb /. 1024. | None -> 0.

(* User and system CPU seconds of a live process, from
   /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s — the
   USER_HZ every Linux ABI uses). *)
let cpu_seconds pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> (0., 0.)
  | text -> (
    let i = String.rindex text ')' in
    let fields =
      String.sub text (i + 2) (String.length text - i - 2)
      |> String.split_on_char ' '
    in
    match (List.nth_opt fields 11, List.nth_opt fields 12) with
    | Some u, Some s -> (float_of_string u /. 100., float_of_string s /. 100.)
    | _ -> (0., 0.))

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | text -> (
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.trim (String.sub line 0 i) = "model name" ->
             Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
           | _ -> None)
    |> function
    | Some m -> m
    | None -> "unknown")

let rec files_under dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.sort compare entries;
    Array.to_list entries
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory p then files_under p else [ p ])

(* The program's revision: the commit when the tree is a git checkout,
   else a digest of the sources that build the program (benchmark
   checkouts carry no .git directory). *)
let revision () =
  let from_git =
    if not (Sys.file_exists ".git") then None
    else
      try
        let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
        let line = In_channel.input_line ic in
        ignore (Unix.close_process_in ic);
        line
      with _ -> None
  in
  match from_git with
  | Some rev when rev <> "" -> rev
  | _ ->
    let files =
      files_under "lib" @ files_under "bin" @ List.filter Sys.file_exists [ "dune-project" ]
    in
    let buf = Buffer.create 4096 in
    List.iter
      (fun f ->
        Buffer.add_string buf f;
        Buffer.add_string buf (Digest.to_hex (Digest.file f)))
      files;
    "src-" ^ Digest.to_hex (Digest.string (Buffer.contents buf))

(* Every workload runs its work on one domain: the daemon at --jobs 1,
   Netsim and run_all at ~jobs:1.  With two domains on a shared 2-core
   host, a domain waiting at a stop-the-world barrier for its
   descheduled peer burns CPU, so CPU time per operation moved with the
   other tenants' load; on one domain it measures the program. *)
let jobs = 1

let fingerprint () =
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("cpu_model", cpu_model ());
    ("ocaml", Sys.ocaml_version);
    ("rev", revision ());
    ("jobs", string_of_int jobs);
  ]

(* Scratch space inside the working directory, one per benchmark
   process; removed by [cleanup]. *)
let scratch_root = ".perfbench_tmp"

let scratch =
  lazy
    (let dir = Filename.concat scratch_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
     (try Unix.mkdir scratch_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     Unix.mkdir dir 0o755;
     dir)

let scratch_file name = Filename.concat (Lazy.force scratch) name

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let cleanup () =
  if Lazy.is_val scratch then begin
    (try remove_tree (Lazy.force scratch) with Sys_error _ -> ());
    try Sys.rmdir scratch_root with Sys_error _ -> ()
  end

(* The span events of a trace file, streamed (desim traces run to tens
   of megabytes of packet events). *)
let span_events path =
  In_channel.with_open_text path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | None -> List.rev acc
        | Some line -> (
          match Bstats.span_event_of_line line with
          | Some e -> go (e :: acc)
          | None -> go acc)
      in
      go [])
