(* A live `ffc serve` process and client connections to its Unix
   socket.  Every spawned daemon is registered so that [stop_all] can
   reap it whatever path the benchmark exits by. *)

type t = { pid : int; socket : string }

let live = ref []

let spawn ~ffc ~socket args =
  (try Sys.remove socket with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (Host.scratch_file "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let argv = Array.of_list (ffc :: "serve" :: "--socket" :: socket :: args) in
  let pid = Unix.create_process ffc argv null log log in
  Unix.close null;
  Unix.close log;
  live := pid :: !live;
  { pid; socket }

type conn = { fd : Unix.file_descr; mutable pending : string; chunk : Bytes.t }

(* Connect, retrying while the daemon has not bound its socket yet. *)
let connect ?(timeout = 30.) d =
  let deadline = Host.now () +. timeout in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () -> { fd; pending = ""; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Host.now () < deadline ->
      Unix.close fd;
      (* Fine steps: spawn-to-accept is a few milliseconds. *)
      Unix.sleepf 0.0001;
      go ()
    | exception e ->
      Unix.close fd;
      raise e
  in
  go ()

let send c s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* The next reply line, or [None] on end of stream or when nothing
   arrives before [deadline]. *)
let rec read_line ~deadline c =
  match String.index_opt c.pending '\n' with
  | Some i ->
    let line = String.sub c.pending 0 i in
    c.pending <- String.sub c.pending (i + 1) (String.length c.pending - i - 1);
    Some line
  | None -> (
    let wait = deadline -. Host.now () in
    if wait <= 0. then None
    else
      match Unix.select [ c.fd ] [] [] wait with
      | [], _, _ -> None
      | _ ->
        let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
        if n = 0 then None
        else begin
          c.pending <- c.pending ^ Bytes.sub_string c.chunk 0 n;
          read_line ~deadline c
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ~deadline c)

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Wait for [pid] to exit, killing it after [grace] seconds. *)
let reap ?(grace = 20.) pid =
  let deadline = Host.now () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Host.now () < deadline ->
      Unix.sleepf 0.005;
      go ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

(* Orderly stop: a shutdown request on [c], then reap.  Returns the
   shutdown reply. *)
let shutdown d c =
  send c "shutdown\n";
  let reply = read_line ~deadline:(Host.now () +. 30.) c in
  close c;
  reap d.pid;
  reply

let stop_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Spawn-to-accept time: from process creation until a client
   connection succeeds. *)
let start ~ffc ~socket args =
  let t0 = Host.now () in
  let d = spawn ~ffc ~socket args in
  let c = connect d in
  (d, c, Host.now () -. t0)
