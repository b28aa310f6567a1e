open Ffc_numerics
open Ffc_topology
open Ffc_core
open Ffc_faults

type tier = Full | Incremental | Cached

let tier_label = function
  | Full -> "full"
  | Incremental -> "incremental"
  | Cached -> "cached"

(* Ladder position of a served request, "shed" included; lower is
   healthier.  Transitions between successive requests are the
   degrade/recover events. *)
let rank_of_label = function
  | "full" -> 0
  | "incremental" -> 1
  | "cached" -> 2
  | "shed" -> 3
  | _ -> 3

type config = {
  signal : Signal.t;
  b_ss : float;
  epsilon : float;
  min_rate : float;
  backlog_incremental : float;
  backlog_cached : float;
  backlog_shed : float;
  cost_full : float;
  cost_incremental : float;
  cost_cached : float;
  cost_shed : float;
  cost_query : float;
  timeout : float;
  retries : int;
  backoff_base : float;
  sleep_backoff : bool;
  seed : int;
  plan : Fault.plan;
  sup_retries : int;
  escape : float;
}

let default_config =
  {
    signal = Signal.linear_fractional;
    b_ss = 0.5;
    epsilon = 1e-6;
    min_rate = 0.;
    backlog_incremental = 0.5;
    backlog_cached = 2.;
    backlog_shed = 8.;
    cost_full = 0.05;
    cost_incremental = 0.01;
    cost_cached = 0.002;
    cost_shed = 5e-4;
    cost_query = 0.05;
    timeout = 0.;
    retries = 2;
    backoff_base = 0.05;
    sleep_backoff = false;
    seed = 0;
    plan = Fault.none;
    sup_retries = 3;
    escape = 1e12;
  }

type t = {
  config : config;
  controller : Controller.t;
  net : Network.t;
  n : int;
  names : string array;
  index_of : (string, int) Hashtbl.t;
  b_ss_per_conn : float array;  (* declared adjuster b_SS, config default *)
  digest : string;
  failure_hook : (seq:int -> attempt:int -> bool) option;
  slow_hook : (seq:int -> attempt:int -> float) option;
  mutable active : bool array;
  mutable ss : Vec.t;
  mutable df : (Mat.Sparse.t * Vec.t) option;  (* DF and its build point *)
  mutable rho : float;
  mutable rho_fresh : bool;
  mutable vclock : float;
  mutable last_time : float;
  mutable seq_counter : int;
  mutable mutation_count : int;
  mutable last_tier : string;
  counts : (string, int) Hashtbl.t;  (* keyed by [counter_order] *)
}

(* The engine's counters, persisted through snapshots and reported by
   [stats] in this order.  The [served_*] counts are requests served at
   each ladder rung (decision events only: add and remove, not
   read-only verbs) — the counts `ffc trace report` cross checks against
   the span stream. *)
let counter_order =
  [
    "admits"; "rejects"; "sheds"; "removes"; "queries"; "degrades"; "recovers";
    "backoffs"; "served_full"; "served_incremental"; "served_cached";
    "served_shed";
  ]

let counter t k = Hashtbl.find t.counts k
let counters t = List.map (fun k -> (k, counter t k)) counter_order
let bump t k = Hashtbl.replace t.counts k (counter t k + 1)

(* An engine event, counted both in the persisted counters and as
   [service.<k>] in the ambient metrics registry. *)
let count t k =
  bump t k;
  Ffc_obs.Ctx.incr_named ("service." ^ k)

(* Everything a snapshot must have been taken under for restore to be
   sound: the model (topology, adjusters, signal, b_SS), the admission
   thresholds, the ladder geometry, and the verdict machinery's
   parameters. *)
let compute_digest ~config:c ~controller ~net =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Dsl.to_string net);
  Array.iter
    (fun a ->
      Buffer.add_string buf (Rate_adjust.name a);
      Buffer.add_char buf '\n')
    (Controller.adjusters controller);
  List.iter (fun s -> Buffer.add_string buf (s ^ "\n")) (Fault.describe c.plan);
  Buffer.add_string buf
    (Printf.sprintf "%s|%h|%h|%h|%h|%h|%h|%h|%h|%h|%h|%h|%h|%d|%h|%d|%d|%h"
       (Signal.name c.signal) c.b_ss c.epsilon c.min_rate c.backlog_incremental
       c.backlog_cached c.backlog_shed c.cost_full c.cost_incremental
       c.cost_cached c.cost_shed c.cost_query c.timeout c.retries
       c.backoff_base c.seed c.sup_retries c.escape);
  Digest.to_hex (Digest.string (Buffer.contents buf))


let create ?(config = default_config) ?failure_hook ?slow_hook controller ~net =
  let n = Network.num_connections net in
  if Array.length (Controller.adjusters controller) <> n then
    invalid_arg "Admission.create: adjuster count does not match the network";
  if not (config.b_ss > 0. && config.b_ss < 1.) then
    invalid_arg "Admission.create: b_ss must be in (0,1)";
  if
    not
      (config.backlog_incremental >= 0.
      && config.backlog_cached >= config.backlog_incremental
      && config.backlog_shed >= config.backlog_cached)
  then invalid_arg "Admission.create: ladder thresholds must be nondecreasing";
  if config.retries < 0 then invalid_arg "Admission.create: retries must be >= 0";
  Fault.validate config.plan ~net;
  let names =
    Array.init n (fun i -> (Network.connection net i).Network.conn_name)
  in
  let index_of = Hashtbl.create (2 * n) in
  Array.iteri (fun i name -> Hashtbl.replace index_of name i) names;
  let b_ss_per_conn =
    Array.map
      (fun a -> Option.value (Rate_adjust.declared_b_ss a) ~default:config.b_ss)
      (Controller.adjusters controller)
  in
  let counts = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace counts k 0) counter_order;
  {
    config;
    controller;
    net;
    n;
    names;
    index_of;
    b_ss_per_conn;
    digest = compute_digest ~config ~controller ~net;
    failure_hook;
    slow_hook;
    active = Array.make n false;
    ss = Array.make n 0.;
    df = None;
    rho = 0.;
    rho_fresh = true;
    vclock = 0.;
    last_time = 0.;
    seq_counter = 0;
    mutation_count = 0;
    last_tier = "full";
    counts;
  }

let population mask = Array.fold_left (fun a b -> if b then a + 1 else a) 0 mask
let net t = t.net
let active t = Array.copy t.active
let active_count t = population t.active
let rates t = Array.copy t.ss
let rho t = t.rho
let seq t = t.seq_counter
let mutations t = t.mutation_count
let vclock t = t.vclock
let config_digest t = t.digest

let next_seq t =
  t.seq_counter <- t.seq_counter + 1;
  t.seq_counter

type reply = { line : string; mutated : bool }

(* ------------------------------------------------------------------ *)
(* Response rendering                                                  *)
(* ------------------------------------------------------------------ *)

let json = Ffc_obs.Jsonf.obj
let jnum = Ffc_obs.Jsonf.float_json
let jstr = Ffc_obs.Jsonf.string
let jint = string_of_int
let jbool = string_of_bool
let error_line ~seq msg = json [ ("ok", "false"); ("seq", jint seq); ("error", jstr msg) ]

(* ------------------------------------------------------------------ *)
(* Ladder mechanics                                                    *)
(* ------------------------------------------------------------------ *)

let backlog_at t ~time = Float.max 0. (t.vclock -. time)

let pick_tier t ~backlog =
  if backlog >= t.config.backlog_cached then Cached
  else if backlog >= t.config.backlog_incremental then Incremental
  else Full

let cost_of t = function
  | Full -> t.config.cost_full
  | Incremental -> t.config.cost_incremental
  | Cached -> t.config.cost_cached

let charge t ~time cost = t.vclock <- Float.max t.vclock time +. cost

(* Record the ladder transition implied by serving this request at
   [label], updating counters and trace. *)
let note_tier t ~seq label =
  let prev = rank_of_label t.last_tier and cur = rank_of_label label in
  if cur > prev then begin
    count t "degrades";
    match Ffc_obs.Ctx.tracing () with
    | Some c ->
      Ffc_obs.Ctx.emit c
        (Ffc_obs.Event.svc_degrade ~seq ~from_tier:t.last_tier ~to_tier:label)
    | None -> ()
  end
  else if cur < prev then begin
    count t "recovers";
    match Ffc_obs.Ctx.tracing () with
    | Some c -> Ffc_obs.Ctx.emit c (Ffc_obs.Event.svc_recover ~seq ~tier:label)
    | None -> ()
  end;
  t.last_tier <- label

exception Transient of string

(* Run one solve under the robustness envelope: injected-fault seam,
   observational wall-clock deadline, bounded retries with deterministic
   jittered exponential backoff.  The jitter stream is a pure function
   of (config seed, request seq), so identical request streams back off
   identically wherever they run.

   A solve that finishes after the deadline still finished: the result
   is kept (discarding it would throw away completed work and re-pay
   the whole solve), and the overrun is recorded only in the ambient
   metrics registry, which — like the latency histograms — sits outside
   the determinism contract.  Nothing on the decision path reads the
   wall clock, so decision logs are reproducible even with
   [timeout > 0]. *)
let solve_with_retry t ~seq f =
  let rng = Rng.create (t.config.seed lxor (seq * 0x9E3779B9)) in
  let rec go attempt =
    let retry () =
      if attempt >= t.config.retries then None
      else begin
        let delay =
          t.config.backoff_base
          *. Float.pow 2. (float_of_int attempt)
          *. (1. +. Rng.uniform rng)
        in
        count t "backoffs";
        (match Ffc_obs.Ctx.tracing () with
        | Some c -> Ffc_obs.Ctx.emit c (Ffc_obs.Event.svc_backoff ~seq ~attempt ~delay)
        | None -> ());
        if t.config.sleep_backoff then Unix.sleepf delay;
        go (attempt + 1)
      end
    in
    match
      (match t.failure_hook with
      | Some hook when hook ~seq ~attempt -> raise (Transient "injected solver fault")
      | Some _ | None -> ());
      let t0 = if t.config.timeout > 0. then Unix.gettimeofday () else 0. in
      (* The slow-solve seam sleeps inside the timed window, so a test
         can make this attempt overrun the deadline. *)
      (match t.slow_hook with
      | Some hook ->
        let d = hook ~seq ~attempt in
        if d > 0. then Unix.sleepf d
      | None -> ());
      let r = f () in
      if t.config.timeout > 0. && Unix.gettimeofday () -. t0 > t.config.timeout
      then Ffc_obs.Ctx.incr_named "service.timeouts";
      r
    with
    | r -> Some (r, attempt + 1)
    | exception Transient _ -> retry ()
    | exception Failure _ -> retry ()
  in
  go 0

(* The DF cache, rebuilt lazily after a restore (bit-identical to the
   pre-crash matrix; warm from the result cache when one is installed). *)
let ensure_df t =
  match t.df with
  | Some (df, at) -> (df, at)
  | None ->
    let df = Jacobian.of_controller_sparse t.controller ~net:t.net ~at:t.ss in
    t.df <- Some (df, t.ss);
    (df, t.ss)

type solved = {
  s_ss : Vec.t;
  s_df : (Mat.Sparse.t * Vec.t) option;
  s_rho : float;
  s_fresh : bool;
}

(* The stability half of a solve: DF and rho(DF) at the candidate rates
   [ss'] — from scratch on the full tier, patched from the cached DF on
   the incremental tier.  The cached tier keeps the committed DF and its
   (stale) rho. *)
let stability t tier ss' =
  match tier with
  | Full ->
    let df' = Jacobian.of_controller_sparse t.controller ~net:t.net ~at:ss' in
    let rho' = Jacobian.spectral_radius_sparse df' in
    { s_ss = ss'; s_df = Some (df', ss'); s_rho = rho'; s_fresh = true }
  | Incremental ->
    let prev_df, prev_at = ensure_df t in
    let df' =
      Jacobian.update_flow t.controller ~net:t.net ~prev:prev_df ~prev_at ~at:ss'
    in
    let rho' = Jacobian.spectral_radius_incremental df' in
    { s_ss = ss'; s_df = Some (df', ss'); s_rho = rho'; s_fresh = true }
  | Cached -> { s_ss = ss'; s_df = t.df; s_rho = t.rho; s_fresh = false }

(* Rates for [mask], then stability evidence for [tier].  Below the
   full tier the rates are patched from [prev] (the committed population
   by default; a batch chains its members' tentative populations). *)
let solve_mask ?prev t tier ~mask =
  let { signal; b_ss; _ } = t.config in
  let ss' =
    match tier with
    | Full -> Steady_state.fair_masked ~signal ~b_ss ~net:t.net ~active:mask
    | Incremental | Cached ->
      let prev, prev_active = Option.value prev ~default:(t.ss, t.active) in
      Steady_state.update_fair ~signal ~b_ss ~net:t.net ~prev ~prev_active
        ~active:mask
  in
  stability t tier ss'

(* Walk the ladder downward from [tier] until a solve survives the
   retry envelope; every forced step down is a degrade event.  Without
   [degrade] only [tier] itself is tried. *)
let solve_degrading t ~seq ~mask ~degrade tier =
  let rec go tier =
    match solve_with_retry t ~seq (fun () -> solve_mask t tier ~mask) with
    | Some (solved, attempts) -> Some (tier, solved, attempts)
    | None when not degrade -> None
    | None -> (
      match tier with
      | Full -> go Incremental
      | Incremental -> go Cached
      | Cached -> None)
  in
  go tier

let min_ratio_of t ~mask ~rates =
  let baselines =
    Robustness.baselines_masked ~signal:t.config.signal ~b_ss:t.b_ss_per_conn
      ~net:t.net ~active:mask
  in
  let best = ref Float.infinity in
  Array.iteri
    (fun i b -> if mask.(i) && b > 0. then best := Float.min !best (rates.(i) /. b))
    baselines;
  if Float.is_finite !best then Some !best else None

let commit ?(mutations = 1) t ~mask solved =
  t.active <- mask;
  t.ss <- solved.s_ss;
  (match solved.s_df with Some _ as df -> t.df <- df | None -> ());
  t.rho <- solved.s_rho;
  t.rho_fresh <- solved.s_fresh;
  t.mutation_count <- t.mutation_count + mutations;
  (* Per-window fairness of the committed allocation: Jain's index over
     the rates of the flows active after this mutation.  A pure function
     of the model state, so the gauge is deterministic. *)
  match Ffc_obs.Ctx.ambient () with
  | None -> ()
  | Some c ->
    let k = ref 0 in
    Array.iter (fun a -> if a then incr k) t.active;
    if !k > 0 then begin
      let rates = Array.make !k 0. in
      let j = ref 0 in
      Array.iteri
        (fun i a ->
          if a then begin
            rates.(!j) <- t.ss.(i);
            incr j
          end)
        t.active;
      Ffc_obs.Metrics.Gauge.set
        (Ffc_obs.Metrics.gauge (Ffc_obs.Ctx.metrics c) "service.jain_fairness")
        (Stats.jain_index rates)
    end

let emit_decision t ~seq ~op ?conn ~decision ~tier ?rho:rho_v ?min_ratio ?rate
    ~backlog () =
  bump t ("served_" ^ tier);
  match Ffc_obs.Ctx.tracing () with
  | Some c ->
    Ffc_obs.Ctx.emit c
      (Ffc_obs.Event.svc_decision ~seq ~op ?conn ~decision ~tier ?rho:rho_v
         ?min_ratio ?rate ~backlog ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* add: one member step for serial, batched and replayed adds          *)
(* ------------------------------------------------------------------ *)

let request_time t = function
  | Some time when Float.is_finite time -> Float.max t.last_time time
  | Some _ | None -> t.last_time

(* Slot lookup against an explicit occupancy mask, so a batch can probe
   its tentative population rather than the committed one. *)
let find_slot_in t mask = function
  | Some name -> (
    match Hashtbl.find_opt t.index_of name with
    | None -> Error (Printf.sprintf "unknown connection %S" name)
    | Some i -> if mask.(i) then Error (Printf.sprintf "slot %S is busy" name) else Ok i)
  | None -> (
    let rec first i =
      if i >= t.n then Error "no idle slot"
      else if mask.(i) then first (i + 1)
      else Ok i
    in
    first 0)

(* The admission test, in the order its reasons are reported: the
   newcomer's own rate floor, the Theorem-5 reservation baselines of
   the whole candidate population, then systemic stability.  Batch pass
   1 has no rho yet and leaves that last check to the batch verdict. *)
let verdict t ~rate ~min_ratio ?rho () =
  if rate < t.config.min_rate then Some "min_rate"
  else if
    match min_ratio with Some r -> r < 1. -. t.config.epsilon | None -> false
  then Some "min_ratio"
  else match rho with Some r when r >= 1. -> Some "rho" | Some _ | None -> None

let add_reply t ~seq ~name ~decision ~tier ?reason ?rate ?rho ?min_ratio ~active
    ~attempts ~backlog ~vclock ?batch () =
  let opt key render = function None -> [] | Some v -> [ (key, render v) ] in
  json
    ([
       ("ok", "true");
       ("op", jstr "add");
       ("seq", jint seq);
       ("conn", jstr name);
       ("decision", jstr decision);
       ("tier", jstr tier);
     ]
    @ opt "reason" jstr reason
    @ opt "rate" jnum rate
    @ opt "rho" jnum rho
    @ [ ("rho_fresh", jbool t.rho_fresh) ]
    @ opt "min_ratio" jnum min_ratio
    @ [
        ("active", jint active);
        ("attempts", jint attempts);
        ("backlog", jnum backlog);
        ("vclock", jnum vclock);
      ]
    @ opt "batch" jint batch)

(* Settle one add: count its decision, record its ladder rung, emit the
   decision event and render the reply.  [active] and [vclock] default
   to the live engine; a batch member settled after its bracket's
   verdict reports the values it saw in pass 1. *)
let settle t ~seq ~slot ~backlog ?batch ?active ?vclock ~tier ?reason ?rate
    ?rho ?min_ratio ~attempts () =
  let name = t.names.(slot) in
  let decision = match reason with None -> "admit" | Some _ -> "reject" in
  count t
    (if reason = None then "admits" else if tier = "shed" then "sheds" else "rejects");
  note_tier t ~seq tier;
  emit_decision t ~seq ~op:"add" ~conn:name ~decision ~tier ?rho ?min_ratio
    ?rate ~backlog ();
  add_reply t ~seq ~name ~decision ~tier ?reason ?rate ?rho ?min_ratio
    ~active:(Option.value active ~default:(active_count t))
    ~attempts ~backlog
    ~vclock:(Option.value vclock ~default:t.vclock)
    ?batch ()

type arrival = {
  a_seq : int;
  a_time : float;
  a_backlog : float;
  a_conn : string option;  (* the request's own name, for a replay *)
  a_slot : int;
}

(* How an add leaves ingress: refused (unknown name, busy slot, no idle
   slot), shed at the ladder floor, or through to the solvers. *)
type ingress = Refused of string | Shed of string | Arrived of arrival

(* The ingress half every add shares: claim a seq, stamp the logical
   arrival time, find a slot against [mask] (the committed population,
   or a batch's tentative one), and past the shed threshold discard
   the flow without touching the solvers at all. *)
let arrive t ~mask ?batch { Protocol.conn; time } =
  let seq = next_seq t in
  let time = request_time t time in
  t.last_time <- time;
  let backlog = backlog_at t ~time in
  match find_slot_in t mask conn with
  | Error msg ->
    charge t ~time t.config.cost_shed;
    count t "rejects";
    Refused (error_line ~seq msg)
  | Ok slot when backlog >= t.config.backlog_shed ->
    charge t ~time t.config.cost_shed;
    Shed
      (settle t ~seq ~slot ~backlog ?batch ~active:(population mask) ~tier:"shed"
         ~reason:"overload" ~attempts:0 ())
  | Ok slot ->
    Arrived { a_seq = seq; a_time = time; a_backlog = backlog; a_conn = conn; a_slot = slot }

(* The serial core, for an arrival whose slot is idle in the committed
   population: solve that population plus the newcomer under the retry
   envelope, take the verdict, commit an admit, settle.  A serial add
   walks down the ladder from [tier] and pays for the tier that served
   it; a batch member [replay]ed after its bracket's rho check crossed 1
   stays at the batch's tier and was already paid for in pass 1. *)
let serve_add t ?batch ~replay a tier =
  let mask = Array.copy t.active in
  mask.(a.a_slot) <- true;
  let pay tier = if not replay then charge t ~time:a.a_time (cost_of t tier) in
  let settle = settle t ~seq:a.a_seq ~slot:a.a_slot ~backlog:a.a_backlog ?batch in
  match solve_degrading t ~seq:a.a_seq ~mask ~degrade:(not replay) tier with
  | None ->
    pay Cached;
    settle ~tier:"cached" ~reason:"solver_failure"
      ~attempts:(t.config.retries + 1) ()
  | Some (tier, solved, attempts) ->
    pay tier;
    let rate = solved.s_ss.(a.a_slot) in
    let min_ratio = min_ratio_of t ~mask ~rates:solved.s_ss in
    let reason = verdict t ~rate ~min_ratio ~rho:solved.s_rho () in
    if reason = None then commit t ~mask solved;
    settle ~tier:(tier_label tier) ?reason ~rate ~rho:solved.s_rho ?min_ratio
      ~attempts ()

let handle_add t add =
  let before = t.mutation_count in
  let line =
    match arrive t ~mask:t.active add with
    | Refused line | Shed line -> line
    | Arrived a -> serve_add t ~replay:false a (pick_tier t ~backlog:a.a_backlog)
  in
  { line; mutated = t.mutation_count <> before }

(* ------------------------------------------------------------------ *)
(* batch: rank-k admission                                             *)
(* ------------------------------------------------------------------ *)

(* A batch member that passed every per-member check in pass 1 and
   awaits the single batch-final rho(DF) verdict, with what it saw on
   the tentative chain. *)
type candidate = {
  arrival : arrival;
  c_rate : float;
  c_min_ratio : float option;
  c_attempts : int;
  c_vclock : float;
  c_active : int;  (* population size with this member joined *)
}

type member = Settled of string | Candidate of candidate

(* Rank-k admission: the members' rates are solved as a chain of
   cached-tier {!Steady_state.update_fair} patches against a tentative
   population — each of those rate vectors is bit-identical to what the
   serial adds would have produced (the incremental kernels are
   prev-independent) — and the expensive stability evidence, DF and
   rho(DF), is computed once on the batch-final accepted mask.  Whenever
   rho stays on the same side of 1 throughout the batch (the regular
   case), every verdict bit-matches serial execution; if the single
   check lands at rho >= 1, the candidates are replayed through the
   serial core against committed state so the greedy serial verdicts
   are reproduced exactly. *)
let handle_batch_requests t (adds : Protocol.add list) =
  let k = List.length adds in
  let admits0 = counter t "admits"
  and rejects0 = counter t "rejects"
  and sheds0 = counter t "sheds" in
  let errors = ref 0 in
  let cur_mask = ref t.active and cur_ss = ref t.ss in
  let batch_tier = ref None in
  (* ---- pass 1: the member step on the tentative chain ---- *)
  let members =
    List.map
      (fun add ->
        match arrive t ~mask:!cur_mask ~batch:k add with
        | Refused line ->
          incr errors;
          Settled line
        | Shed line -> Settled line
        | Arrived a -> (
          let mask = Array.copy !cur_mask in
          mask.(a.a_slot) <- true;
          let settle =
            settle t ~seq:a.a_seq ~slot:a.a_slot ~backlog:a.a_backlog ~batch:k
              ~active:(population !cur_mask) ~tier:"cached"
          in
          match
            solve_with_retry t ~seq:a.a_seq (fun () ->
                solve_mask ~prev:(!cur_ss, !cur_mask) t Cached ~mask)
          with
          | None ->
            charge t ~time:a.a_time t.config.cost_cached;
            Settled
              (settle ~reason:"solver_failure" ~attempts:(t.config.retries + 1) ())
          | Some (solved, attempts) -> (
            if !batch_tier = None then batch_tier := Some (pick_tier t ~backlog:a.a_backlog);
            charge t ~time:a.a_time t.config.cost_cached;
            let rate = solved.s_ss.(a.a_slot) in
            let min_ratio = min_ratio_of t ~mask ~rates:solved.s_ss in
            match verdict t ~rate ~min_ratio () with
            | Some reason ->
              Settled
                (settle ~reason ~rate ~rho:solved.s_rho ?min_ratio ~attempts ())
            | None ->
              cur_mask := mask;
              cur_ss := solved.s_ss;
              Candidate
                {
                  arrival = a;
                  c_rate = rate;
                  c_min_ratio = min_ratio;
                  c_attempts = attempts;
                  c_vclock = t.vclock;
                  c_active = population mask;
                })))
      adds
  in
  (* ---- pass 2: one batch-final stability verdict ---- *)
  let summary_seq = next_seq t in
  let sum_time = t.last_time in
  let sum_backlog = backlog_at t ~time:sum_time in
  let tier = Option.value !batch_tier ~default:Cached in
  let n_cand =
    List.length (List.filter (function Candidate _ -> true | Settled _ -> false) members)
  in
  let label, attempts, settle_candidate =
    if n_cand = 0 then begin
      charge t ~time:sum_time t.config.cost_shed;
      ("cached", 0, fun (_ : candidate) -> assert false)
    end
    else begin
      (* A batch-final solve that fails under the whole retry envelope
         degrades the batch to cached-tier evidence, like serial adds
         stuck at the ladder floor. *)
      let solved, attempts =
        match tier with
        | Cached -> (stability t Cached !cur_ss, 0)
        | Full | Incremental -> (
          match
            solve_with_retry t ~seq:summary_seq (fun () -> stability t tier !cur_ss)
          with
          | Some r -> r
          | None -> (stability t Cached !cur_ss, t.config.retries + 1))
      in
      charge t ~time:sum_time (cost_of t (if solved.s_fresh then tier else Cached));
      let label = if solved.s_fresh then tier_label tier else "cached" in
      let crossed = solved.s_rho >= 1. in
      if crossed && solved.s_fresh then
        (* rho crossed 1 somewhere inside the batch: replay the
           candidates one by one through the serial core at the batch's
           tier, so the greedy serial verdicts (including which member
           crosses the line) are reproduced.  Serial adds find their
           slot against committed state: when an earlier replayed member
           is rejected its slot frees, and the next anonymous member
           lands on it — re-find rather than reuse the pass-1
           assignment.  (Re-finding cannot fail: the committed
           population is a subset of the tentative one the pass-1
           lookup succeeded against.) *)
        ( label,
          attempts,
          fun c ->
            let a = c.arrival in
            let slot =
              match find_slot_in t t.active a.a_conn with
              | Ok s -> s
              | Error _ -> a.a_slot
            in
            serve_add t ~batch:k ~replay:true { a with a_slot = slot } tier )
      else begin
        (* Otherwise the batch verdict stands for every candidate: all
           admitted on the final mask, or — when stale rho already sits
           at >= 1 (cached tier or a failed batch solve) — all rejected
           on rho without committing, as serial cached-tier adds would
           be.  An admitted member reports the population it joined, a
           rejected one the committed population. *)
        if not crossed then commit ~mutations:n_cand t ~mask:!cur_mask solved;
        ( label,
          attempts,
          fun c ->
            let a = c.arrival in
            let reason =
              verdict t ~rate:c.c_rate ~min_ratio:c.c_min_ratio ~rho:solved.s_rho ()
            in
            settle t ~seq:a.a_seq ~slot:a.a_slot ~backlog:a.a_backlog ~batch:k
              ~active:(if reason = None then c.c_active else active_count t)
              ~vclock:c.c_vclock ~tier:label ?reason ~rate:c.c_rate
              ~rho:solved.s_rho ?min_ratio:c.c_min_ratio ~attempts:c.c_attempts () )
      end
    end
  in
  let member_lines =
    List.map
      (function Settled line -> line | Candidate c -> settle_candidate c)
      members
  in
  let admits = counter t "admits" - admits0
  and sheds = counter t "sheds" - sheds0 in
  let rejects = counter t "rejects" - rejects0 - !errors in
  let summary =
    json
      [
        ("ok", "true");
        ("op", jstr "batch");
        ("seq", jint summary_seq);
        ("adds", jint k);
        ("admits", jint admits);
        ("rejects", jint rejects);
        ("sheds", jint sheds);
        ("errors", jint !errors);
        ("tier", jstr label);
        ("rho", jnum t.rho);
        ("rho_fresh", jbool t.rho_fresh);
        ("active", jint (active_count t));
        ("attempts", jint attempts);
        ("backlog", jnum sum_backlog);
        ("vclock", jnum t.vclock);
      ]
  in
  let replies =
    List.map (fun line -> { line; mutated = false }) member_lines
    @ [ { line = summary; mutated = admits > 0 } ]
  in
  ( replies,
    ( label,
      [
        ("admits", jint admits);
        ("rejects", jint (rejects + !errors));
        ("sheds", jint sheds);
      ] ) )

(* ------------------------------------------------------------------ *)
(* remove                                                              *)
(* ------------------------------------------------------------------ *)

let handle_remove t ~conn ~time =
  let seq = next_seq t in
  let time = request_time t time in
  t.last_time <- time;
  let backlog = backlog_at t ~time in
  match Hashtbl.find_opt t.index_of conn with
  | None ->
    charge t ~time t.config.cost_shed;
    { line = error_line ~seq (Printf.sprintf "unknown connection %S" conn); mutated = false }
  | Some slot when not t.active.(slot) ->
    charge t ~time t.config.cost_shed;
    { line = error_line ~seq (Printf.sprintf "slot %S is not active" conn); mutated = false }
  | Some slot ->
    let mask = Array.copy t.active in
    mask.(slot) <- false;
    (* Departures are never shed — the flow is gone whether or not we
       are overloaded; the ladder only decides how much bookkeeping the
       departure gets. *)
    let tier0 =
      if backlog >= t.config.backlog_shed then Cached else pick_tier t ~backlog
    in
    let tier, solved, attempts =
      match solve_degrading t ~seq ~mask ~degrade:true tier0 with
      | Some r -> r
      | None ->
        (* Every tier's solver failed: deactivate the slot and zero its
           rate so the population stays consistent; rho goes stale. *)
        let ss' = Array.copy t.ss in
        ss'.(slot) <- 0.;
        (Cached, { s_ss = ss'; s_df = t.df; s_rho = t.rho; s_fresh = false },
         t.config.retries + 1)
    in
    charge t ~time (cost_of t tier);
    commit t ~mask solved;
    count t "removes";
    let label = tier_label tier in
    note_tier t ~seq label;
    emit_decision t ~seq ~op:"remove" ~conn ~decision:"ok" ~tier:label
      ~rho:solved.s_rho ~backlog ();
    {
      line =
        json
          [
            ("ok", "true");
            ("op", jstr "remove");
            ("seq", jint seq);
            ("conn", jstr conn);
            ("decision", jstr "ok");
            ("tier", jstr label);
            ("rho", jnum solved.s_rho);
            ("rho_fresh", jbool t.rho_fresh);
            ("active", jint (active_count t));
            ("attempts", jint attempts);
            ("backlog", jnum backlog);
            ("vclock", jnum t.vclock);
          ];
      mutated = true;
    }

(* ------------------------------------------------------------------ *)
(* query                                                               *)
(* ------------------------------------------------------------------ *)

(* The active sub-population as a standalone network, for the
   supervised verdict: gateways unchanged, idle slots dropped, fault
   targets remapped onto the surviving indices. *)
let sub_population t =
  let sub_index = Array.make t.n (-1) in
  let order = ref [] in
  let k = ref 0 in
  Array.iteri
    (fun i a ->
      if a then begin
        sub_index.(i) <- !k;
        incr k;
        order := i :: !order
      end)
    t.active;
  let order = Array.of_list (List.rev !order) in
  let gateways =
    Array.init (Network.num_gateways t.net) (fun a -> Network.gateway t.net a)
  in
  let connections = Array.map (fun i -> Network.connection t.net i) order in
  let sub_net = Network.create ~gateways ~connections in
  let adjusters = Array.map (fun i -> (Controller.adjusters t.controller).(i)) order in
  let sub_controller =
    Controller.create ~config:(Controller.config t.controller) ~adjusters
  in
  let r0 = Array.map (fun i -> t.ss.(i)) order in
  let specs =
    List.filter_map
      (fun { Fault.kind; conns } ->
        match conns with
        | None -> Some { Fault.kind; conns = None }
        | Some l -> (
          let l' =
            List.filter_map
              (fun i ->
                if i >= 0 && i < t.n && sub_index.(i) >= 0 then Some sub_index.(i)
                else None)
              l
          in
          match l' with [] -> None | _ -> Some { Fault.kind; conns = Some l' }))
      t.config.plan.Fault.specs
  in
  let sub_plan = Fault.plan ~seed:t.config.plan.Fault.seed specs in
  (sub_net, sub_controller, r0, sub_plan)

let handle_query t ~time =
  let seq = next_seq t in
  let time = request_time t time in
  t.last_time <- time;
  let backlog = backlog_at t ~time in
  count t "queries";
  (* Read-only verbs are never refused: past the shed threshold the
     query is answered from the last committed state at shed cost (no
     solver work at all); in the cached band the verdict machinery is
     skipped but the bookkeeping is live.  Either way the reply carries
     [stale=true] so callers know the verdict was withheld. *)
  let shed = backlog >= t.config.backlog_shed in
  let degraded = backlog >= t.config.backlog_cached in
  let verdict =
    if degraded || active_count t = 0 then None
    else begin
      let sub_net, sub_controller, r0, sub_plan = sub_population t in
      let v =
        Supervisor.run ~escape:t.config.escape ~retries:t.config.sup_retries
          ~plan:sub_plan sub_controller ~net:sub_net ~r0
      in
      Some (Supervisor.verdict_to_json v)
    end
  in
  charge t ~time
    (if shed then t.config.cost_shed
     else if degraded then t.config.cost_cached
     else t.config.cost_query);
  let tier =
    if shed then "shed" else if degraded then "cached" else t.last_tier
  in
  {
    line =
      json
        ([
           ("ok", "true");
           ("op", jstr "query");
           ("seq", jint seq);
           ("active", jint (active_count t));
           ("rho", jnum t.rho);
           ("rho_fresh", jbool t.rho_fresh);
           ("tier", jstr tier);
         ]
        @ (if degraded then [ ("stale", "true") ] else [])
        @ [
            ("backlog", jnum backlog);
            ("vclock", jnum t.vclock);
            ("verdict", match verdict with None -> "null" | Some v -> v);
          ]);
    mutated = false;
  }

let handle_stats t ~time =
  let seq = next_seq t in
  let time = request_time t time in
  t.last_time <- time;
  let backlog = backlog_at t ~time in
  (* Counters are always live — a stats probe is how an operator watches
     an overloaded daemon, so it is free (no vclock charge) and never
     shed; past the shed threshold the reply is merely tagged stale. *)
  let overloaded = backlog >= t.config.backlog_shed in
  {
    line =
      json
        ([
           ("ok", "true");
           ("op", jstr "stats");
           ("seq", jint seq);
           ("active", jint (active_count t));
           ("mutations", jint t.mutation_count);
           ("tier", jstr (if overloaded then "shed" else t.last_tier));
         ]
        @ (if overloaded then [ ("stale", "true") ] else [])
        @ [
            ("rho", jnum t.rho);
            ("rho_fresh", jbool t.rho_fresh);
            ("backlog", jnum backlog);
            ("vclock", jnum t.vclock);
          ]
        @ List.map (fun (k, v) -> (k, jint v)) (counters t));
    mutated = false;
  }

let dispatch t = function
  | Protocol.Add add -> handle_add t add
  | Protocol.Remove { conn; time } -> handle_remove t ~conn ~time
  | Protocol.Query { time } -> handle_query t ~time
  | Protocol.Stats { time } -> handle_stats t ~time
  | Protocol.Batch_begin | Protocol.Batch_end ->
    invalid_arg
      "Admission.handle: batch brackets are session-level (use handle_batch)"
  | Protocol.Metrics _ | Protocol.Snapshot | Protocol.Shutdown ->
    invalid_arg
      "Admission.handle: metrics/snapshot/shutdown are server-level requests"

let op_of = function
  | Protocol.Add _ -> "add"
  | Protocol.Batch_begin -> "batch"
  | Protocol.Batch_end -> "end"
  | Protocol.Remove _ -> "remove"
  | Protocol.Query _ -> "query"
  | Protocol.Stats _ -> "stats"
  | Protocol.Metrics _ -> "metrics"
  | Protocol.Snapshot -> "snapshot"
  | Protocol.Shutdown -> "shutdown"

(* The reply line is the source of truth for how the request was served
   — scrape tier/decision back out of it rather than threading them
   through every handler. *)
let tier_of_reply line =
  match Protocol.json_string_field line ~key:"tier" with
  | Some tier -> tier
  | None -> "error"

let decision_of_reply line =
  match Protocol.json_string_field line ~key:"decision" with
  | Some d -> d
  | None -> (
    match Protocol.json_string_field line ~key:"error" with
    | Some _ -> "error"
    | None -> "ok")

(* One span per request or batch bracket, opened with [op] (and [sid]
   when a session is known) and tagged at the end with the served tier
   and whatever [tag] reads off the result; the per-tier latency
   histogram shares the span's wall clock and, like it, reads zero
   under --trace-deterministic. *)
let traced ?sid ~name ~op ?(attrs = []) ~tag f =
  match Ffc_obs.Ctx.ambient () with
  | None -> f ()
  | Some c ->
    let t0 = if Ffc_obs.Ctx.timing c then Unix.gettimeofday () else 0. in
    let span =
      Ffc_obs.Span.start
        ~attrs:
          ((("op", jstr op) :: attrs)
          @ match sid with None -> [] | Some s -> [ ("sid", jint s) ])
        name
    in
    Fun.protect
      ~finally:(fun () -> if Ffc_obs.Span.on span then Ffc_obs.Span.finish span)
      (fun () ->
        let result = f () in
        let tier, end_attrs = tag result in
        if Ffc_obs.Span.on span then
          Ffc_obs.Span.finish ~attrs:(("tier", jstr tier) :: end_attrs) span;
        let wall =
          if Ffc_obs.Ctx.timing c then Unix.gettimeofday () -. t0 else 0.
        in
        Ffc_obs.Metrics.Histogram.observe
          (Ffc_obs.Metrics.histogram (Ffc_obs.Ctx.metrics c)
             ("service.latency." ^ tier))
          wall;
        result)

let handle ?sid t req =
  traced ?sid ~name:"svc.request" ~op:(op_of req)
    ~tag:(fun reply ->
      (tier_of_reply reply.line, [ ("decision", jstr (decision_of_reply reply.line)) ]))
    (fun () -> dispatch t req)

(* One span per batch bracket — the "one rank-k solve" is visible as
   exactly one svc.batch span wrapping the member decisions. *)
let handle_batch ?sid t adds =
  fst
    (traced ?sid ~name:"svc.batch" ~op:"batch"
       ~attrs:[ ("adds", jint (List.length adds)) ]
       ~tag:snd
       (fun () -> handle_batch_requests t adds))

(* ------------------------------------------------------------------ *)
(* Snapshot integration                                                *)
(* ------------------------------------------------------------------ *)

let state t =
  {
    Snapshot.digest = t.digest;
    seq = t.seq_counter;
    mutations = t.mutation_count;
    vclock = t.vclock;
    last_time = t.last_time;
    active = Array.copy t.active;
    rates = Array.copy t.ss;
    rho = t.rho;
    rho_fresh = t.rho_fresh;
    last_tier = t.last_tier;
    counters = counters t;
  }

let restore t (s : Snapshot.state) =
  if s.Snapshot.digest <> t.digest then
    Error
      (Printf.sprintf
         "snapshot digest %s does not match this configuration (%s)"
         s.Snapshot.digest t.digest)
  else if Array.length s.Snapshot.active <> t.n then
    Error "snapshot population size does not match the topology"
  else begin
    t.active <- Array.copy s.Snapshot.active;
    t.ss <- Array.copy s.Snapshot.rates;
    t.df <- None;
    t.rho <- s.Snapshot.rho;
    t.rho_fresh <- s.Snapshot.rho_fresh;
    t.vclock <- s.Snapshot.vclock;
    t.last_time <- s.Snapshot.last_time;
    t.seq_counter <- s.Snapshot.seq;
    t.mutation_count <- s.Snapshot.mutations;
    t.last_tier <- s.Snapshot.last_tier;
    List.iter
      (fun k ->
        Hashtbl.replace t.counts k
          (Option.value (List.assoc_opt k s.Snapshot.counters) ~default:0))
      counter_order;
    Ok ()
  end
