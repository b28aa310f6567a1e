type t = {
  engine : Admission.t;
  snapshot_path : string option;
  snapshot_every : int;
  (* Mutation count at the last published snapshot: the cadence rule is
     "snapshot once [snapshot_every] mutations have accumulated since",
     which stays correct when a batch commits many mutations at once
     and skips the exact multiple. *)
  mutable last_snap_mutations : int;
}

let create ?snapshot_path ?(snapshot_every = 16) engine =
  if snapshot_every <= 0 then
    invalid_arg "Server.create: snapshot_every must be positive";
  { engine; snapshot_path; snapshot_every; last_snap_mutations = 0 }

let engine t = t.engine

let recover t =
  match t.snapshot_path with
  | None -> Ok false
  | Some path ->
    if not (Sys.file_exists path) then Ok false
    else (
      match Snapshot.load ~path with
      | Error e -> Error e
      | Ok state -> (
        match Admission.restore t.engine state with
        | Ok () ->
          t.last_snap_mutations <- Admission.mutations t.engine;
          Ok true
        | Error e -> Error e))

let json = Ffc_obs.Jsonf.obj
let jstr = Ffc_obs.Jsonf.string

let take_snapshot t ~seq =
  match t.snapshot_path with
  | None -> Error "snapshotting is off (no snapshot path configured)"
  | Some path ->
    let bytes = Snapshot.write ~path (Admission.state t.engine) in
    t.last_snap_mutations <- Admission.mutations t.engine;
    Ffc_obs.Ctx.incr_named "service.snapshots";
    (match Ffc_obs.Ctx.tracing () with
    | Some c -> Ffc_obs.Ctx.emit c (Ffc_obs.Event.svc_snapshot ~seq ~bytes)
    | None -> ());
    Ok bytes

let maybe_snapshot t =
  if
    t.snapshot_path <> None
    && Admission.mutations t.engine - t.last_snap_mutations >= t.snapshot_every
  then
    ignore (take_snapshot t ~seq:(Admission.seq t.engine) : (int, string) result)

(* ------------------------------------------------------------------ *)
(* Sessions: per-client protocol state                                  *)
(* ------------------------------------------------------------------ *)

type session = {
  sid : int;
  (* An open batch bracket accumulates adds (reversed) until "end". *)
  mutable bracket : Protocol.add list option;
}

let max_batch = 1024

(* Session ids are deterministic: scripted/in-process sessions default
   to 0, and the daemon numbers accepted sessions 1, 2, ... per run —
   a global counter would leak process history into the span stream. *)
let new_session ?(sid = 0) () = { sid; bracket = None }

let error_reply t msg = Admission.error_line ~seq:(Admission.next_seq t.engine) msg

let handle_session_line t s line =
  let trimmed = String.trim line in
  if trimmed = "" || trimmed.[0] = '#' then `Silent
  else
    match Protocol.parse trimmed with
    | Error e -> `Replies [ error_reply t e ]
    | Ok req -> (
      match (s.bracket, req) with
      | None, Protocol.Batch_begin ->
        s.bracket <- Some [];
        `Silent
      | None, Protocol.Batch_end ->
        `Replies [ error_reply t "end without an open batch bracket" ]
      | Some _, Protocol.Batch_begin ->
        `Replies [ error_reply t "batch bracket already open" ]
      | Some adds, Protocol.Add a ->
        if List.length adds >= max_batch then begin
          s.bracket <- None;
          `Replies
            [
              error_reply t
                (Printf.sprintf "batch exceeds %d adds; bracket discarded"
                   max_batch);
            ]
        end
        else begin
          s.bracket <- Some (a :: adds);
          `Silent
        end
      | Some adds, Protocol.Batch_end ->
        s.bracket <- None;
        let replies =
          Admission.handle_batch ~sid:s.sid t.engine (List.rev adds)
        in
        if List.exists (fun r -> r.Admission.mutated) replies then
          maybe_snapshot t;
        `Replies (List.map (fun r -> r.Admission.line) replies)
      | Some _, _ ->
        (* Anything else inside a bracket is a protocol error: brackets
           exist to coalesce adds, and silently interleaving other verbs
           would make the batch semantics ambiguous.  The bracket stays
           open. *)
        `Replies [ error_reply t "only add is allowed inside a batch bracket" ]
      | None, Protocol.Snapshot -> (
        let seq = Admission.next_seq t.engine in
        match take_snapshot t ~seq with
        | Error e -> `Replies [ Admission.error_line ~seq e ]
        | Ok bytes ->
          `Replies
            [
              json
                [
                  ("ok", "true");
                  ("op", jstr "snapshot");
                  ("seq", string_of_int seq);
                  ("bytes", string_of_int bytes);
                  ("mutations", string_of_int (Admission.mutations t.engine));
                ];
            ])
      | None, Protocol.Shutdown ->
        let seq = Admission.next_seq t.engine in
        let snapshot_field =
          (* Best effort: shutdown still succeeds when the final snapshot
             cannot be written, but the reply says so. *)
          match t.snapshot_path with
          | None -> [ ("snapshot", "false") ]
          | Some _ -> (
            match take_snapshot t ~seq with
            | Ok _ -> [ ("snapshot", "true") ]
            | Error e -> [ ("snapshot", "false"); ("snapshot_error", jstr e) ])
        in
        `Quit
          [
            json
              ([
                 ("ok", "true");
                 ("op", jstr "shutdown");
                 ("seq", string_of_int seq);
                 ("served", string_of_int (Admission.seq t.engine));
               ]
              @ snapshot_field);
          ]
      | None, Protocol.Metrics { prom } -> (
        let seq = Admission.next_seq t.engine in
        (* Live introspection of the daemon's ambient metrics registry —
           answered at the server level so the admission engine's logical
           clock and decision stream stay untouched. *)
        match Ffc_obs.Ctx.ambient () with
        | None -> `Replies [ Admission.error_line ~seq "no metrics registry installed" ]
        | Some c ->
          let snap = Ffc_obs.Metrics.snapshot (Ffc_obs.Ctx.metrics c) in
          let body =
            if prom then
              [
                ("format", jstr "prometheus");
                ("text", jstr (Ffc_obs.Metrics.render_prometheus snap));
              ]
            else
              [
                ("format", jstr "json");
                ("metrics", Ffc_obs.Metrics.render_json_line snap);
              ]
          in
          `Replies
            [
              json
                ([ ("ok", "true"); ("op", jstr "metrics"); ("seq", string_of_int seq) ]
                @ body);
            ])
      | None, req ->
        let { Admission.line = reply; mutated } =
          Admission.handle ~sid:s.sid t.engine req
        in
        if mutated then maybe_snapshot t;
        `Replies [ reply ])

let handle_line t line =
  (* Bracketless compatibility entry point: each call runs in a throwaway
     session, so batch brackets cannot span calls (use
     {!handle_session_line} for that). *)
  match handle_session_line t (new_session ()) line with
  | `Silent -> `Silent
  | `Replies rs -> `Reply (String.concat "\n" rs)
  | `Quit rs -> `Quit (String.concat "\n" rs)

let run_script t lines =
  let s = new_session () in
  let rec go acc = function
    | [] -> List.rev acc
    | line :: rest -> (
      match handle_session_line t s line with
      | `Silent -> go acc rest
      | `Replies rs -> go (List.rev_append rs acc) rest
      | `Quit rs -> List.rev (List.rev_append rs acc))
  in
  go [] lines

(* ------------------------------------------------------------------ *)
(* Unix-domain-socket daemon: single-threaded select event loop         *)
(* ------------------------------------------------------------------ *)

(* How [Unix.accept] failures are handled; exposed for the dedicated
   test.  Transient interruptions retry immediately, already-gone
   clients are ignored, resource exhaustion stops accepting for this
   loop round (existing sessions keep being served; the listener is
   retried next round), anything else is a real bug and must surface. *)
let classify_accept_error = function
  | Unix.EINTR -> `Retry
  | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK -> `Ignore
  | Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS | Unix.ENOMEM -> `Backoff
  | _ -> `Fatal

type conn = {
  fd : Unix.file_descr;
  state : session;
  inbuf : Buffer.t;  (* unparsed bytes: at most one partial line *)
  mutable out : string;  (* pending reply bytes *)
  mutable out_pos : int;
  mutable last_activity : float;
  mutable closing : bool;  (* drain [out], then close *)
}

let max_out_buffer = 1 lsl 20  (* slow-reader backpressure bound *)
let max_line_bytes = 1 lsl 16
let shutdown_grace = 2.0  (* seconds to drain replies after shutdown *)

let serve ?(max_sessions = 64) ?(idle_timeout = 0.) t ~socket =
  if max_sessions <= 0 then invalid_arg "Server.serve: max_sessions must be positive";
  (* A dead server leaves its socket file behind; replace it.  Refuse
     to unlink anything that is not a socket — a mistyped path must not
     delete a real file. *)
  (match Unix.lstat socket with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink socket
  | _ -> failwith (Printf.sprintf "%s exists and is not a socket" socket)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* A client vanishing mid-reply must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Fun.protect
    ~finally:(fun () ->
      Unix.close lfd;
      try Unix.unlink socket with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind lfd (Unix.ADDR_UNIX socket);
      Unix.listen lfd (max 8 (min max_sessions 128));
      Unix.set_nonblock lfd;
      let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
      let next_sid = ref 0 in
      let shutting_down = ref false in
      let shutdown_deadline = ref infinity in
      let scratch = Bytes.create 4096 in
      let drop c =
        Hashtbl.remove conns c.state.sid;
        try Unix.close c.fd with Unix.Unix_error _ -> ()
      in
      let pending c = String.length c.out - c.out_pos in
      let enqueue c lines =
        let add = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
        if pending c + String.length add > max_out_buffer then begin
          (* The reader is too slow to keep up with its own replies:
             shed the session rather than buffer without bound or stall
             the loop.  The engine's decisions stand either way. *)
          Ffc_obs.Ctx.incr_named "service.slow_reader_drops";
          drop c
        end
        else if pending c = 0 then begin
          c.out <- add;
          c.out_pos <- 0
        end
        else begin
          c.out <- String.sub c.out c.out_pos (pending c) ^ add;
          c.out_pos <- 0
        end
      in
      let sids () = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) conns []) in
      let process_input c =
        (* Split complete lines off the head of [inbuf], keeping the
           partial tail for the next read. *)
        let data = Buffer.contents c.inbuf in
        match String.rindex_opt data '\n' with
        | None ->
          if String.length data > max_line_bytes then begin
            enqueue c [ error_reply t "request line too long" ];
            if Hashtbl.mem conns c.state.sid then begin
              Buffer.clear c.inbuf;
              c.closing <- true
            end
          end
        | Some last ->
          Buffer.clear c.inbuf;
          Buffer.add_substring c.inbuf data (last + 1)
            (String.length data - last - 1);
          let lines = String.split_on_char '\n' (String.sub data 0 last) in
          List.iter
            (fun line ->
              if Hashtbl.mem conns c.state.sid && not !shutting_down then
                match handle_session_line t c.state line with
                | `Silent -> ()
                | `Replies rs -> enqueue c rs
                | `Quit rs ->
                  enqueue c rs;
                  if Hashtbl.mem conns c.state.sid then c.closing <- true;
                  shutting_down := true;
                  shutdown_deadline := Unix.gettimeofday () +. shutdown_grace)
            lines
      in
      let accept_round () =
        let continue = ref true in
        while !continue do
          match Unix.accept lfd with
          | cfd, _ ->
            Unix.set_nonblock cfd;
            if Hashtbl.length conns >= max_sessions then begin
              (* Accept-time shedding: the bounded session table is the
                 service's connection backpressure.  The shed line is
                 composed without touching the engine, so the decision
                 log never depends on connection timing. *)
              Ffc_obs.Ctx.incr_named "service.sessions_shed";
              let line =
                json
                  [
                    ("ok", "false");
                    ("error", jstr "session table full; shed at accept");
                    ("sessions", string_of_int max_sessions);
                  ]
                ^ "\n"
              in
              (try
                 ignore
                   (Unix.single_write_substring cfd line 0 (String.length line)
                     : int)
               with Unix.Unix_error _ -> ());
              (try Unix.close cfd with Unix.Unix_error _ -> ())
            end
            else begin
              Ffc_obs.Ctx.incr_named "service.sessions_opened";
              incr next_sid;
              let state = new_session ~sid:!next_sid () in
              Hashtbl.replace conns state.sid
                {
                  fd = cfd;
                  state;
                  inbuf = Buffer.create 256;
                  out = "";
                  out_pos = 0;
                  last_activity = Unix.gettimeofday ();
                  closing = false;
                }
            end
          | exception Unix.Unix_error (e, _, _) -> (
            match classify_accept_error e with
            | `Retry -> ()
            | `Ignore -> continue := false
            | `Backoff ->
              Ffc_obs.Ctx.incr_named "service.accept_backoffs";
              continue := false
            | `Fatal -> raise (Unix.Unix_error (e, "accept", socket)))
        done
      in
      while
        not
          (!shutting_down
          && (Unix.gettimeofday () > !shutdown_deadline
             || List.for_all
                  (fun sid ->
                    match Hashtbl.find_opt conns sid with
                    | None -> true
                    | Some c -> pending c = 0)
                  (sids ())))
      do
        let now = Unix.gettimeofday () in
        let reads =
          (if !shutting_down then [] else [ lfd ])
          @ List.filter_map
              (fun sid ->
                match Hashtbl.find_opt conns sid with
                | Some c when (not c.closing) && not !shutting_down -> Some c.fd
                | _ -> None)
              (sids ())
        in
        let writes =
          List.filter_map
            (fun sid ->
              match Hashtbl.find_opt conns sid with
              | Some c when pending c > 0 -> Some c.fd
              | _ -> None)
            (sids ())
        in
        let timeout =
          if !shutting_down then 0.05
          else if idle_timeout > 0. then
            Hashtbl.fold
              (fun _ c acc ->
                Float.min acc (Float.max 0.01 (c.last_activity +. idle_timeout -. now)))
              conns 1.0
          else if writes = [] then -1.0
          else 1.0
        in
        let readable, writable, _ =
          try Unix.select reads writes [] timeout
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        if List.mem lfd readable then accept_round ();
        (* Read phase, in stable sid order so the service order of
           simultaneously-ready sessions is reproducible. *)
        List.iter
          (fun sid ->
            match Hashtbl.find_opt conns sid with
            | None -> ()
            | Some c ->
              if List.mem c.fd readable then (
                match Unix.read c.fd scratch 0 (Bytes.length scratch) with
                | 0 ->
                  (* EOF: an unterminated batch bracket dies with the
                     session — a bracket is never applied implicitly. *)
                  if pending c = 0 then drop c else c.closing <- true
                | n ->
                  c.last_activity <- Unix.gettimeofday ();
                  Buffer.add_subbytes c.inbuf scratch 0 n;
                  process_input c
                | exception
                    Unix.Unix_error
                      ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                  ()
                | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
                  ->
                  drop c))
          (sids ());
        (* Write phase: non-blocking, partial writes kept for the next
           round — a slow reader never stalls the loop. *)
        List.iter
          (fun sid ->
            match Hashtbl.find_opt conns sid with
            | None -> ()
            | Some c ->
              if (List.mem c.fd writable || !shutting_down) && pending c > 0 then (
                match
                  Unix.single_write_substring c.fd c.out c.out_pos (pending c)
                with
                | n ->
                  c.out_pos <- c.out_pos + n;
                  c.last_activity <- Unix.gettimeofday ();
                  if pending c = 0 && c.closing then drop c
                | exception
                    Unix.Unix_error
                      ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                  ()
                | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
                  ->
                  drop c))
          (sids ());
        if idle_timeout > 0. && not !shutting_down then begin
          let now = Unix.gettimeofday () in
          List.iter
            (fun sid ->
              match Hashtbl.find_opt conns sid with
              | Some c when now -. c.last_activity > idle_timeout ->
                Ffc_obs.Ctx.incr_named "service.idle_closed";
                drop c
              | _ -> ())
            (sids ())
        end
      done;
      List.iter
        (fun sid ->
          match Hashtbl.find_opt conns sid with None -> () | Some c -> drop c)
        (sids ()))
