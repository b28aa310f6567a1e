(* JSONL trace events.

   Every constructor renders one self-contained JSON object with an
   "ev" discriminator first; payloads carry only deterministic data —
   step indices, seeds, simulation time, model values — never
   wall-clock timestamps, so a trace is byte-identical across runs,
   machines, and pool schedules (scheduling events excepted; see
   [pool_map]/[pool_chunk], which are off by default). *)

let obj kind fields = Jsonf.obj (("ev", Jsonf.string kind) :: fields)

let int_ = string_of_int
let bool_ = string_of_bool

let floats xs =
  let buf = Buffer.create (Array.length xs * 12) in
  Buffer.add_char buf '[';
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Jsonf.float_json x))
    xs;
  Buffer.add_char buf ']';
  Buffer.contents buf

let opt_field name = function None -> [] | Some v -> [ (name, v) ]

(* ------------------------------------------------------------------ *)
(* Run lifecycle                                                       *)
(* ------------------------------------------------------------------ *)

let run_start ~cmd ?target ?seed ~stride () =
  obj "run.start"
    ([ ("cmd", Jsonf.string cmd) ]
    @ opt_field "target" (Option.map Jsonf.string target)
    @ opt_field "seed" (Option.map int_ seed)
    @ [ ("stride", int_ stride) ])

let run_end ~cmd () = obj "run.end" [ ("cmd", Jsonf.string cmd) ]

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* [attrs] values are pre-rendered JSON fragments (see Span.attrs);
   [lc] is the per-scope logical clock.  The timing channel — wall_ns
   and alloc_w on span.end — is the single deliberate exception to the
   no-wall-clock rule above; Span zeroes both when the context's
   [timing] flag is off (--trace-deterministic). *)

let span_start ~id ~name ~lc ~attrs =
  obj "span.start"
    ([ ("id", Jsonf.string id); ("name", Jsonf.string name); ("lc", int_ lc) ]
    @ attrs)

let span_end ~id ~name ~lc ~wall_ns ~alloc_w ~attrs =
  obj "span.end"
    ([
       ("id", Jsonf.string id);
       ("name", Jsonf.string name);
       ("lc", int_ lc);
       ("wall_ns", int_ wall_ns);
       ("alloc_w", int_ alloc_w);
     ]
    @ attrs)

(* ------------------------------------------------------------------ *)
(* Controller iteration                                                *)
(* ------------------------------------------------------------------ *)

let ctrl_step ~step ~residual ~rates =
  obj "ctrl.step"
    [
      ("step", int_ step);
      ("residual", Jsonf.float_json residual);
      ("rates", floats rates);
    ]

(* [steps] is the converged step count, the divergence step, the cycle
   period, or 0 for no-convergence — one numeric slot, disambiguated by
   [outcome]. *)
let ctrl_outcome ~outcome ~steps =
  obj "ctrl.outcome" [ ("outcome", Jsonf.string outcome); ("steps", int_ steps) ]

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

let sup_attempt ~attempt ~damping =
  obj "sup.attempt"
    [ ("attempt", int_ attempt); ("damping", Jsonf.float_json damping) ]

let sup_verdict ~outcome ~attempts ~recovered ~total_steps ?min_ratio () =
  obj "sup.verdict"
    ([
       ("outcome", Jsonf.string outcome);
       ("attempts", int_ attempts);
       ("recovered", bool_ recovered);
       ("total_steps", int_ total_steps);
     ]
    @ opt_field "min_ratio" (Option.map Jsonf.float_json min_ratio))

(* ------------------------------------------------------------------ *)
(* Fault injector                                                      *)
(* ------------------------------------------------------------------ *)

let fault_drop ~step ~conn =
  obj "fault.drop" [ ("step", int_ step); ("conn", int_ conn) ]

let fault_cut ~step ~gw ~active =
  obj "fault.cut" [ ("step", int_ step); ("gw", int_ gw); ("active", bool_ active) ]

let fault_flap ~step ~conn ~present =
  obj "fault.flap"
    [ ("step", int_ step); ("conn", int_ conn); ("present", bool_ present) ]

(* ------------------------------------------------------------------ *)
(* Online gateway service                                              *)
(* ------------------------------------------------------------------ *)

let svc_decision ~seq ~op ?conn ~decision ~tier ?rho ?min_ratio ?rate ~backlog () =
  obj "svc.decision"
    ([ ("seq", int_ seq); ("op", Jsonf.string op) ]
    @ opt_field "conn" (Option.map Jsonf.string conn)
    @ [ ("decision", Jsonf.string decision); ("tier", Jsonf.string tier) ]
    @ opt_field "rho" (Option.map Jsonf.float_json rho)
    @ opt_field "min_ratio" (Option.map Jsonf.float_json min_ratio)
    @ opt_field "rate" (Option.map Jsonf.float_json rate)
    @ [ ("backlog", Jsonf.float_json backlog) ])

let svc_degrade ~seq ~from_tier ~to_tier =
  obj "svc.degrade"
    [
      ("seq", int_ seq);
      ("from", Jsonf.string from_tier);
      ("to", Jsonf.string to_tier);
    ]

let svc_recover ~seq ~tier =
  obj "svc.recover" [ ("seq", int_ seq); ("tier", Jsonf.string tier) ]

let svc_backoff ~seq ~attempt ~delay =
  obj "svc.backoff"
    [ ("seq", int_ seq); ("attempt", int_ attempt); ("delay", Jsonf.float_json delay) ]

let svc_snapshot ~seq ~bytes =
  obj "svc.snapshot" [ ("seq", int_ seq); ("bytes", int_ bytes) ]

(* ------------------------------------------------------------------ *)
(* Discrete-event simulator                                            *)
(* ------------------------------------------------------------------ *)

let desim_delivery ~time ~conn ~delay =
  obj "desim.delivery"
    [
      ("t", Jsonf.float_json time);
      ("conn", int_ conn);
      ("delay", Jsonf.float_json delay);
    ]

let desim_summary ~conn ~deliveries ~throughput =
  obj "desim.summary"
    [
      ("conn", int_ conn);
      ("deliveries", int_ deliveries);
      ("throughput", Jsonf.float_json throughput);
    ]

(* ------------------------------------------------------------------ *)
(* Pool scheduling (nondeterministic by nature; ctx.sched-gated)       *)
(* ------------------------------------------------------------------ *)

let pool_map ~tasks ~jobs ~chunk =
  obj "pool.map" [ ("tasks", int_ tasks); ("jobs", int_ jobs); ("chunk", int_ chunk) ]

let pool_chunk ~start ~stop ~domain =
  obj "pool.chunk"
    [ ("start", int_ start); ("stop", int_ stop); ("domain", int_ domain) ]

(* ------------------------------------------------------------------ *)
(* Result cache                                                        *)
(* ------------------------------------------------------------------ *)

let cache_lookup ~tier ~key ~hit =
  obj "cache.lookup"
    [ ("tier", Jsonf.string tier); ("key", Jsonf.string key); ("hit", bool_ hit) ]

let cache_store ~tier ~key ~bytes =
  obj "cache.store"
    [ ("tier", Jsonf.string tier); ("key", Jsonf.string key); ("bytes", int_ bytes) ]
