(* The churn workloads: `ffc serve` driven over its Unix socket by the
   Poisson churn generator, as a closed loop (each request waits for its
   reply).  The untraced run measures the socket path; the traced run
   also replays the same request lines through each layer's public
   functions to split the time. *)

open Ffc_topology
open Ffc_core
open Ffc_service

type cfg = {
  name : string;
  preset : string;
  net : unit -> Network.t;
  rate : float;
  arrivals : int;  (** per episode, each on a fresh daemon *)
  clients : int;
  batch : int;
  query_every : int;
  snapshot_every : int option;
}

let dense =
  {
    name = "churn-dense";
    preset = "single:32";
    net = (fun () -> Topologies.single ~n:32 ());
    rate = 4.;
    arrivals = 1500;
    clients = 1;
    batch = 1;
    query_every = 0;
    snapshot_every = None;
  }

let sparse =
  {
    name = "churn-sparse";
    preset = "multi-parking-lot:32:3";
    net = (fun () -> Topologies.multi_parking_lot ~lots:32 ~hops:3 ());
    rate = 20.;
    arrivals = 1000;
    clients = 2;
    batch = 8;
    query_every = 16;
    snapshot_every = Some 16;
  }

let size_dist = Churn.Exp 1.

(* The engine `ffc serve` builds from its defaults, for in-process
   replays of the daemon's request stream. *)
let engine net =
  let config =
    {
      Admission.default_config with
      sleep_backoff = true;
      plan = Ffc_faults.Fault.plan ~seed:0 [];
      sup_retries = 0;
      escape = 1e12;
    }
  in
  let n = Network.num_connections net in
  let adjusters = Array.make n (Rate_adjust.additive ~eta:0.1 ~beta:0.5) in
  let controller = Controller.create ~config:Feedback.individual_fair_share ~adjusters in
  (controller, Admission.create ~config controller ~net)

let daemon_args cfg ~snapshot ~trace =
  [ "--preset"; cfg.preset; "--jobs"; string_of_int Host.jobs ]
  @ (match cfg.snapshot_every with
    | Some k -> [ "--snapshot"; snapshot; "--snapshot-every"; string_of_int k ]
    | None -> [])
  @ match trace with Some path -> [ "--trace"; path ] | None -> []

(* One client send: a request line, or a whole bracket, on one
   connection. *)
type sent = { conn : int; lines : string list; res : Bstats.unit_result; t_end : float }

exception Stop

let exchange conns units i lines expected =
  let c = conns.(i) in
  let t0 = Host.now () in
  Daemon.send c (String.concat "" (List.map (fun l -> l ^ "\n") lines));
  let deadline = t0 +. 60. in
  let rec collect acc k =
    if k = 0 then List.rev acc
    else
      match Daemon.read_line ~deadline c with
      | Some l -> collect (l :: acc) (k - 1)
      | None -> List.rev acc
  in
  let replies = collect [] expected in
  let complete = List.length replies = expected in
  let rtt = if complete then Some (Host.now () -. t0) else None in
  let t_end = Host.now () in
  units := { conn = i; lines; res = { Bstats.expected; replies; rtt }; t_end } :: !units;
  if not complete then raise Stop;
  replies

(* One closed-loop churn episode of [cfg.arrivals] arrivals and their
   departures, cut short at [deadline].  Requests rotate over the
   connections in lockstep, brackets ride one connection, as
   `ffc drive --clients N --batch K` sends them. *)
let drive cfg conns ~seed ~deadline =
  let units = ref [] in
  let next = ref 0 in
  let send_unit lines expected =
    if Host.now () >= deadline then raise Stop;
    let i = !next in
    next := (i + 1) mod Array.length conns;
    exchange conns units i lines expected
  in
  let send line = List.hd (send_unit [ line ] 1) in
  let send_batch lines = send_unit lines (List.length lines - 1) in
  let t0 = Host.now () in
  (try
     ignore
       (Churn.run ~query_every:cfg.query_every ~batch:cfg.batch ~send_batch ~seed
          ~rate:cfg.rate ~arrivals:cfg.arrivals ~size_dist ~send ()
         : Churn.stats)
   with Stop -> ());
  (List.rev !units, (t0, Host.now ()))

(* Replay recorded sends over the socket, unit by unit, on the same
   connections. *)
let resend conns sends =
  let units = ref [] in
  (try
     List.iter
       (fun s -> ignore (exchange conns units s.conn s.lines s.res.expected : string list))
       sends
   with Stop -> ());
  List.rev !units

let final_stats conns =
  let units = ref [] in
  (try ignore (exchange conns units 0 [ "stats" ] 1 : string list) with Stop -> ());
  !units

let replies sends = List.concat_map (fun s -> s.res.replies) sends

let first_difference a b =
  let rec go i a b =
    match (a, b) with
    | [], [] -> None
    | x :: a', y :: b' when x = y -> go (i + 1) a' b'
    | _ -> Some i
  in
  go 0 a b

let same_log r name ~expected ~got =
  match first_difference expected got with
  | None -> Report.check r name true (Printf.sprintf "%d replies" (List.length got))
  | Some i -> Report.check r name false (Printf.sprintf "first difference at reply %d" i)

let str line k = Protocol.json_string_field line ~key:k
let num line k = Protocol.json_number_field line ~key:k

let served_op l = match str l "op" with Some ("add" | "remove") -> true | _ -> false

(* The checks every churn run makes on the socket log. *)
let check_log r ~episode sends =
  let name n = Printf.sprintf "%s.e%d" n episode in
  let all = replies sends in
  let missing = List.filter (fun s -> s.res.rtt = None) sends in
  Report.check r (name "one_reply_per_request") (missing = [])
    (Printf.sprintf "%d sends, %d unanswered" (List.length sends) (List.length missing));
  let seqs = List.filter_map (fun l -> Option.map int_of_float (num l "seq")) all in
  let rec contiguous = function
    | a :: (b :: _ as t) -> b = a + 1 && contiguous t
    | _ -> true
  in
  Report.check r (name "seq_contiguous")
    (List.length seqs = List.length all && contiguous seqs)
    (Printf.sprintf "%d replies" (List.length all));
  let ratios =
    List.filter_map
      (fun l ->
        if str l "op" = Some "add" && str l "decision" = Some "admit" then num l "min_ratio"
        else None)
      all
  in
  let worst = List.fold_left Float.min Float.infinity ratios in
  let epsilon = Admission.default_config.epsilon in
  Report.check r (name "theorem5_min_ratio") (worst >= 1. -. epsilon)
    (Printf.sprintf "min over %d admits = %s" (List.length ratios) (Report.num worst));
  let tiers = [ "full"; "incremental"; "cached"; "shed" ] in
  let served = List.filter served_op all in
  let tally t = List.length (List.filter (fun l -> str l "tier" = Some t) served) in
  let stats = List.find_opt (fun l -> str l "op" = Some "stats") (List.rev all) in
  let from_stats t =
    Option.bind stats (fun l -> num l ("served_" ^ t)) |> Option.map int_of_float
  in
  let ok = List.for_all (fun t -> from_stats t = Some (tally t)) tiers in
  Report.check r (name "tier_tallies_match_stats") ok
    (String.concat " "
       (List.map
          (fun t ->
            Printf.sprintf "%s=%d/%s" t (tally t)
              (match from_stats t with Some n -> string_of_int n | None -> "?"))
          tiers))

(* In-process replay through the server's session entry point, timing
   each send.  Sessions mirror the socket connections (brackets are
   session state). *)
let server_stepper cfg =
  let net = cfg.net () in
  let _, e = engine net in
  let snapshot_path =
    Option.map (fun _ -> Host.scratch_file "replay.snap") cfg.snapshot_every
  in
  let server = Server.create ?snapshot_path ?snapshot_every:cfg.snapshot_every e in
  let sessions = Array.init cfg.clients (fun i -> Server.new_session ~sid:(i + 1) ()) in
  fun s ->
    let t0 = Host.now () in
    let out =
      List.concat_map
        (fun l ->
          match Server.handle_session_line server sessions.(s.conn) l with
          | `Replies rs | `Quit rs -> rs
          | `Silent -> [])
        s.lines
    in
    (out, Host.now () -. t0)

let us x = x *. 1e6

let median_us xs = us (Bstats.median xs)

let snapshot_state e = (Array.copy (Admission.active e), Array.copy (Admission.rates e))

(* In-process replay straight into the admission engine, one send at
   a time: times each handle / handle_batch call, snapshots on the
   server's cadence, and records every committed population for the
   kernel timings.  [finish] reports the layer metrics. *)
let admission_stepper r cfg =
  let net = cfg.net () in
  let controller, e = engine net in
  let by_tier = Hashtbl.create 4 and query = ref [] and batch = ref [] in
  let members = ref 0 and snaps = ref [] and bytes = ref [] and busy = ref 0. in
  let last_snap = ref 0 in
  let states = ref [ snapshot_state e ] in
  let out = ref [] in
  let timed f =
    let x, dt = Host.time f in
    busy := !busy +. dt;
    (x, dt)
  in
  let step s =
    let reqs =
      List.filter_map
        (fun l -> match Protocol.parse l with Ok q -> Some q | Error _ -> None)
        s.lines
    in
    let before = Admission.mutations e in
    let lines =
      match reqs with
      | Protocol.Batch_begin :: rest ->
        let adds = List.filter_map (function Protocol.Add a -> Some a | _ -> None) rest in
        let rs, dt = timed (fun () -> Admission.handle_batch e adds) in
        batch := dt :: !batch;
        members := !members + List.length adds;
        List.map (fun x -> x.Admission.line) rs
      | [ q ] ->
        let rep, dt = timed (fun () -> Admission.handle e q) in
        let line = rep.Admission.line in
        (match (q, str line "tier") with
        | Protocol.Query _, _ -> query := dt :: !query
        | (Protocol.Add _ | Protocol.Remove _), Some t ->
          let prev = Option.value (Hashtbl.find_opt by_tier t) ~default:[] in
          Hashtbl.replace by_tier t (dt :: prev)
        | _ -> ());
        [ line ]
      | _ -> []
    in
    if Admission.mutations e <> before then
      states := snapshot_state e :: !states;
    (match cfg.snapshot_every with
    | Some k when Admission.mutations e - !last_snap >= k ->
      let path = Host.scratch_file "admission.snap" in
      let b, dt = Host.time (fun () -> Snapshot.write ~path (Admission.state e)) in
      snaps := dt :: !snaps;
      bytes := float_of_int b :: !bytes;
      last_snap := Admission.mutations e
    | _ -> ());
    out := List.rev_append lines !out;
    lines
  in
  let finish () =
    let out = List.rev !out in
    let tiers = [ "full"; "incremental"; "cached"; "shed" ] in
    List.iter
      (fun t ->
        let xs = Option.value (Hashtbl.find_opt by_tier t) ~default:[] in
        Report.metric r ("admission.handle_us_p50." ^ t) "us" (median_us xs))
      tiers;
    let served = List.filter served_op out in
    List.iter
      (fun t ->
        Report.metric r ("admission.requests." ^ t) "count"
          (float_of_int
             (List.length (List.filter (fun l -> str l "tier" = Some t) served))))
      tiers;
    let adds = List.filter (fun l -> str l "op" = Some "add") out in
    let decided d =
      List.length
        (List.filter
           (fun l ->
             let shed = str l "tier" = Some "shed" in
             if d = "shed" then shed else (not shed) && str l "decision" = Some d)
           adds)
    in
    List.iter
      (fun d ->
        Report.metric r ("admission.decisions." ^ d) "count" (float_of_int (decided d)))
      [ "admit"; "reject"; "shed" ];
    Report.metric r "admission.batch_us_p50" "us" (median_us !batch);
    Report.metric r "admission.batch_members" "count" (float_of_int !members);
    Report.metric r "query.us_p50" "us" (median_us !query);
    let attempts = List.filter_map (fun l -> num l "attempts") out in
    Report.metric r "admission.attempts_per_request" "ratio" (Bstats.mean attempts);
    Report.metric r "snapshot.write_ms_p50" "ms" (Bstats.median !snaps *. 1e3);
    Report.metric r "snapshot.writes" "count" (float_of_int (List.length !snaps));
    Report.metric r "snapshot.bytes" "bytes" (Bstats.mean !bytes);
    (controller, net, List.rev !states, !busy, Bstats.sum !snaps)
  in
  (step, finish)

(* Solver kernels timed on the populations the replay committed: each
   sampled step from one committed state to the next. *)
let kernels r controller net states ~budget =
  let { Admission.signal; b_ss; _ } = Admission.default_config in
  let pattern = Sparsity.of_network net in
  let rec pairs = function a :: (b :: _ as t) -> (a, b) :: pairs t | _ -> [] in
  let steps = Array.of_list (pairs states) in
  (* Up to 200 steps spread over the whole run, visited in a shuffled
     order so that a budget cut still samples every phase of it. *)
  let n = Array.length steps in
  let picks = Array.init (min n 200) (fun k -> k * n / min n 200) in
  let rng = Random.State.make [| n |] in
  for k = Array.length picks - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let t = picks.(k) in
    picks.(k) <- picks.(j);
    picks.(j) <- t
  done;
  let fair = ref [] and upd = ref [] and jac = ref [] and flow = ref [] in
  let eig = ref [] and groups = ref [] in
  let t_end = Host.now () +. budget in
  let i = ref 0 in
  while !i < Array.length picks && Host.now () < t_end do
    let (pa, pr), (a, rates) = steps.(picks.(!i)) in
    let _, dt =
      Host.time (fun () -> Steady_state.fair_masked ~signal ~b_ss ~net ~active:a)
    in
    fair := dt :: !fair;
    let _, dt =
      Host.time (fun () ->
          Steady_state.update_fair ~signal ~b_ss ~net ~prev:pr ~prev_active:pa ~active:a)
    in
    upd := dt :: !upd;
    let df, dt =
      Host.time (fun () -> Jacobian.of_controller_sparse controller ~net ~at:rates)
    in
    jac := dt :: !jac;
    let prev = Jacobian.of_controller_sparse controller ~net ~at:pr in
    let _, dt =
      Host.time (fun () -> Jacobian.update_flow controller ~net ~prev ~prev_at:pr ~at:rates)
    in
    flow := dt :: !flow;
    let _, dt = Host.time (fun () -> Jacobian.spectral_radius_sparse df) in
    eig := dt :: !eig;
    let cols = List.filter (fun j -> a.(j)) (List.init (Array.length a) Fun.id) in
    let g = Sparsity.color_columns ~only_rows:a pattern (Array.of_list cols) in
    groups := float_of_int (Array.length g) :: !groups;
    incr i
  done;
  Report.metric r "steady.fair_masked_us" "us" (median_us !fair);
  Report.metric r "steady.update_fair_us" "us" (median_us !upd);
  Report.metric r "jacobian.sparse_us" "us" (median_us !jac);
  Report.metric r "jacobian.update_flow_us" "us" (median_us !flow);
  Report.metric r "eigen.spectral_radius_sparse_us" "us" (median_us !eig);
  Report.metric r "jacobian.groups" "count" (Bstats.median !groups)

let latencies sends = List.concat_map (fun s -> Bstats.unit_latencies s.res) sends

(* Count every expected reply as attempted, each failure as failed. *)
let count_outcomes r sends =
  let o = List.concat_map (fun s -> Bstats.unit_outcomes s.res) sends in
  Report.count r ~attempted:(List.length o)
    ~failed:(List.length (List.filter (( = ) Bstats.Failed) o));
  o

(* Requests per second (median over twenty slices of the run), and the
   round-trip percentiles of every reply. *)
let request_metrics r ~rate_name sends (t0, t1) =
  let lat = List.map (fun x -> x *. 1e3) (latencies sends) in
  let done_at = List.map (fun s -> (s.t_end, List.length s.res.replies)) sends in
  let rates = Bstats.window_rates ~windows:20 ~t0 ~t1 done_at in
  Report.metric r rate_name "1/s" (Bstats.median rates);
  (match Bstats.tail_percentile ~want:0.99 lat with
  | Some (q, v) ->
    Printf.printf "[latency] %d samples, p50 %.4f ms, tail p%.2f %.4f ms\n"
      (List.length lat) (Bstats.median lat) (100. *. q) v;
    Report.metric r "latency_p99_ms" "ms" v
  | None -> ());
  Report.metric r "latency_p50_ms" "ms" (Bstats.median lat)

(* Each daemon gets its own snapshot file, so none recovers another's
   state. *)
let daemons = ref 0

(* Start the daemon, timing spawn-to-accept [repeats] times; the last
   one is kept for the run. *)
let start_daemon cfg ~ffc ~repeats ~trace =
  let socket = Host.scratch_file "s.sock" in
  let rec go k samples =
    incr daemons;
    let snap = Host.scratch_file (Printf.sprintf "daemon-%d.snap" !daemons) in
    let d, c, setup = Daemon.start ~ffc ~socket (daemon_args cfg ~snapshot:snap ~trace) in
    if k > 1 then begin
      ignore (Daemon.shutdown d c : string option);
      go (k - 1) (setup :: samples)
    end
    else (d, c, setup :: samples)
  in
  let d, c, samples = go repeats [] in
  let conns = Array.init cfg.clients (fun i -> if i = 0 then c else Daemon.connect d) in
  (d, conns, samples)

(* Stats, resource readings and an orderly shutdown. *)
let finish d conns =
  let stats = final_stats conns in
  let cpu = Host.cpu_seconds d.Daemon.pid in
  let rss = Host.peak_rss_mb ~pid:(string_of_int d.Daemon.pid) () in
  Array.iteri (fun i c -> if i > 0 then Daemon.close c) conns;
  ignore (Daemon.shutdown d conns.(0) : string option);
  (stats, cpu, rss)

(* The seed of episode [k] of a run. *)
let episode_seed seed k = Hashtbl.hash (seed, k)

type episode = {
  sends : sent list;
  all : sent list;  (** [sends] and the final [stats] *)
  cpu_user : float;
  cpu_sys : float;
  rss : float;
  span : float * float;
}

(* One episode on a fresh daemon, whose start-up is timed [repeats]
   times. *)
let episode cfg ~ffc ~seed ~deadline ~repeats =
  let d, conns, setups = start_daemon cfg ~ffc ~repeats ~trace:None in
  let sends, span = drive cfg conns ~seed ~deadline in
  let stats, (cpu_user, cpu_sys), rss = finish d conns in
  ({ sends; all = sends @ stats; cpu_user; cpu_sys; rss; span }, setups)

(* The untraced run: whole episodes back to back until [seconds] have
   passed.  Each starts from an empty gateway, so a run averages several
   independent churn paths instead of following one, whose cost drifts
   with its slowly mixing population; none is cut short, because an
   episode's early requests, on a small population, are the cheapest. *)
let run_untraced cfg ~ffc ~seed ~seconds r =
  let deadline = Host.now () +. seconds in
  let whole k ~repeats =
    episode cfg ~ffc ~seed:(episode_seed seed k) ~deadline:Float.infinity ~repeats
  in
  let first, setups = whole 0 ~repeats:41 in
  let rec more k acc =
    if Host.now () >= deadline then List.rev acc
    else more (k + 1) (fst (whole k ~repeats:1) :: acc)
  in
  let episodes = more 1 [ first ] in
  let all = List.concat_map (fun e -> e.all) episodes in
  let t0 = fst first.span and t1 = snd (List.hd (List.rev episodes)).span in
  request_metrics r ~rate_name:"req_per_s" (List.concat_map (fun e -> e.sends) episodes)
    (t0, t1);
  let n = List.length (replies all) in
  let cpu = Bstats.sum (List.map (fun e -> e.cpu_user +. e.cpu_sys) episodes) in
  Printf.printf "[%s] %d episodes, %d replies, daemon cpu %.3f s, wall rate %.2f\n" cfg.name
    (List.length episodes) n cpu
    (Option.value (Report.find r "req_per_s") ~default:0.);
  Report.metric r "ops_per_cpu_s" "1/cpu-s" (float_of_int n /. cpu);
  Report.metric r "setup_s" "s" (Bstats.median setups);
  Report.metric r "peak_rss_mb" "MB"
    (List.fold_left (fun m e -> Float.max m e.rss) 0. episodes);
  List.iteri
    (fun k e ->
      Printf.printf "[%s] episode %d: %d replies, daemon cpu %.2f s\n" cfg.name k
        (List.length (replies e.all)) (e.cpu_user +. e.cpu_sys);
      check_log r ~episode:k e.all;
      let step = server_stepper cfg in
      let inproc = List.concat_map (fun u -> fst (step u)) e.all in
      same_log r
        (Printf.sprintf "socket_log_equals_inprocess_replay.e%d" k)
        ~expected:(replies e.all) ~got:inproc)
    episodes;
  ignore (count_outcomes r all : Bstats.outcome list)

let run cfg ~ffc ~seed ~seconds ~trace r =
  if not trace then run_untraced cfg ~ffc ~seed ~seconds r
  else begin
    (* A: the untraced socket path, the first episode of the untraced
       run. *)
    let deadline = Host.now () +. (seconds /. 2.) in
    let a, _ = episode cfg ~ffc ~seed:(episode_seed seed 0) ~deadline ~repeats:1 in
    let all = a.all in
    let nreq = List.length (replies a.sends) in
    request_metrics r ~rate_name:"req_per_s" a.sends a.span;
    Report.metric r "failed_frac" "frac" (Bstats.failed_frac (count_outcomes r all));
    let per_k x = 1000. *. x /. float_of_int (max 1 nreq) in
    Report.metric r "daemon.cpu_user_s" "s/1000req" (per_k a.cpu_user);
    Report.metric r "daemon.cpu_sys_s" "s/1000req" (per_k a.cpu_sys);
    check_log r ~episode:0 all;
    (* B: the same sends against a daemon writing a trace. *)
    let trace_path = Host.scratch_file "daemon.trace" in
    let d, conns, _ = start_daemon cfg ~ffc ~repeats:1 ~trace:(Some trace_path) in
    let traced = resend conns all in
    ignore (finish d conns);
    same_log r "traced_daemon_log_equal" ~expected:(replies all) ~got:(replies traced);
    let rtt xs = Bstats.sum (List.filter_map (fun s -> s.res.rtt) xs) in
    Report.metric r "obs.trace_overhead_frac" "frac" ((rtt traced /. rtt all) -. 1.);
    let events = Host.span_events trace_path in
    List.iter
      (fun (name, ms) -> Report.metric r ("self_ms." ^ name) "ms" ms)
      (Bstats.self_times events);
    (* Top-level spans (one svc.request or svc.batch per send, in send
       order) give the daemon's own handling time of each send, taken
       at the same moment as its round trip. *)
    let depth = ref 0 and tops = ref [] and jac = ref 0. in
    List.iter
      (function
        | Bstats.Start _ -> incr depth
        | Bstats.End (name, ms) ->
          decr depth;
          if !depth = 0 then tops := (ms /. 1e3) :: !tops;
          if name = "jac.sparse" || name = "jac.update" then jac := !jac +. ms)
      events;
    let tops = List.rev !tops in
    Report.metric r "jacobian.share_of_request" "frac"
      (!jac /. 1e3 /. Float.max 1e-12 (Bstats.sum tops));
    let rec pair sends tops =
      match (sends, tops) with
      | s :: sends', t :: tops' -> (
        match s.res.rtt with Some rtt -> (rtt, t) :: pair sends' tops' | None -> [])
      | _ -> []
    in
    let pairs = pair traced tops in
    Report.metric r "server.transport_us_p50" "us"
      (median_us (List.map (fun (rtt, t) -> rtt -. t) pairs));
    let traced_rtt = Bstats.sum (List.map fst pairs) in
    let transport_share =
      if traced_rtt > 0. then (traced_rtt -. Bstats.sum (List.map snd pairs)) /. traced_rtt
      else 0.
    in
    (* C: in-process replays, send by send: the server entry point,
       then the admission engine on its own copy of the state, back to
       back so both timings see the same host conditions. *)
    let server_step = server_stepper cfg in
    let admission_step, admission_finish = admission_stepper r cfg in
    let timed, direct =
      List.split
        (List.map
           (fun s ->
             let t = server_step s in
             (t, admission_step s))
           all)
    in
    same_log r "socket_log_equals_inprocess_replay" ~expected:(replies all)
      ~got:(List.concat_map fst timed);
    same_log r "admission_replay_equal" ~expected:(replies all) ~got:(List.concat direct);
    let controller, net, states, admission_s, snapshot_s = admission_finish () in
    let lines = List.concat_map (fun s -> s.lines) all in
    let nlines = List.length lines in
    let reps = max 1 (200_000 / max 1 nlines) in
    let (), parse_s =
      Host.time (fun () ->
          for _ = 1 to reps do
            List.iter (fun l -> ignore (Protocol.parse l)) lines
          done)
    in
    let parse_ns = parse_s *. 1e9 /. float_of_int (reps * nlines) in
    Report.metric r "protocol.parse_ns" "ns" parse_ns;
    Report.metric r "protocol.lines" "count" (float_of_int nlines);
    kernels r controller net states ~budget:(Float.min 2. (seconds /. 5.));
    (* Layer shares of the traced round trips: transport from the
       spans above, the server side split in the proportions the
       in-process replay measured.  The [layers] check compares times
       taken side by side, send by send: the separately timed protocol,
       admission and snapshot layers must explain the in-process server
       time. *)
    let server_s = Bstats.sum (List.map snd timed) in
    let protocol_s = parse_ns *. 1e-9 *. float_of_int nlines in
    let explained = (protocol_s +. admission_s +. snapshot_s) /. server_s in
    let share x = (1. -. transport_share) *. x /. server_s in
    Report.metric r "layers.share.transport" "frac" transport_share;
    Report.metric r "layers.share.protocol" "frac" (share protocol_s);
    Report.metric r "layers.share.admission" "frac" (share admission_s);
    Report.metric r "layers.share.snapshot" "frac" (share snapshot_s);
    Report.metric r "layers.share.server_other" "frac"
      (share (Float.max 0. (server_s -. protocol_s -. admission_s -. snapshot_s)));
    Report.metric r "layers.explained_frac" "frac" explained;
    Report.check r "layers" (explained > 0.75 && explained < 1.25)
      (Printf.sprintf "layers explain %.3f of %.3f s in-process server time" explained
         server_s)
  end
