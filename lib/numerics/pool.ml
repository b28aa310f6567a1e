exception Nested

let default = Atomic.make (Domain.recommended_domain_count ())

let default_jobs () = Atomic.get default

let set_default_jobs j =
  if j < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  Atomic.set default j

let inside : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let in_worker () = Domain.DLS.get inside

let effective_jobs ?jobs () =
  if in_worker () then 1
  else match jobs with Some j -> j | None -> default_jobs ()

let parallel_map ?jobs f arr =
  let n = Array.length arr in
  let requested =
    match jobs with
    | Some j when j < 1 -> invalid_arg "Pool.parallel_map: jobs must be >= 1"
    | Some j -> j
    | None -> default_jobs ()
  in
  Ffc_obs.Ctx.add_pool_tasks n;
  let requested = Stdlib.min requested n in
  let fan_out = requested > 1 in
  if fan_out && in_worker () then raise Nested;
  (* One runner for every jobs value: the calling domain plus [jobs - 1]
     spawned domains pull chunks, and nothing is spawned at fan-out 1.
     Fan out at most one domain per core: extra domains never run
     concurrently, they only add stop-the-world GC synchronization
     stalls.  The worker context ([in_worker], [Nested]) follows the
     request, not the clamp, so program behaviour does not depend on
     the machine's core count. *)
  let jobs =
    Stdlib.max 1 (Stdlib.min requested (Domain.recommended_domain_count ()))
  in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  (* Chunked self-scheduling: small enough to balance uneven task
     costs, large enough that the atomic counter is not contended. *)
  let chunk = Stdlib.max 1 (n / (jobs * 4)) in
  (* When a trace sink is live, every task's emissions are captured into
     a private buffer — which also gives it a fresh span scope — and
     flushed in task-index order at the join; that is what keeps a trace
     byte-identical at any --jobs value.  Scheduling detail (which
     domain ran which chunk) is inherently nondeterministic, so it is
     only recorded behind [Ctx.sched]. *)
  let obs = Ffc_obs.Ctx.tracing () in
  let traces = match obs with None -> [||] | Some _ -> Array.make n "" in
  let sched =
    match obs with Some c when Ffc_obs.Ctx.sched c -> true | _ -> false
  in
  let chunk_log = Array.make jobs [] in
  let run_chunks slot () =
    let continue = ref true in
    while !continue do
      let start = Atomic.fetch_and_add next chunk in
      if start >= n || Atomic.get failure <> None then continue := false
      else begin
        let stop = Stdlib.min n (start + chunk) in
        if sched then chunk_log.(slot) <- (start, stop) :: chunk_log.(slot);
        try
          for i = start to stop - 1 do
            match obs with
            | None -> results.(i) <- Some (f arr.(i))
            | Some _ ->
              let r, trace = Ffc_obs.Sink.capture (fun () -> f arr.(i)) in
              results.(i) <- Some r;
              traces.(i) <- trace
          done
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failure None (Some (e, bt)));
          continue := false
      end
    done
  in
  let worker slot () =
    if fan_out then begin
      Domain.DLS.set inside true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set inside false)
        (run_chunks slot)
    end
    else run_chunks slot ()
  in
  let domains = Array.init (jobs - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  (* The calling domain participates instead of idling at the join. *)
  worker 0 ();
  Array.iter Domain.join domains;
  (match obs with
  | None -> ()
  | Some c ->
    (* Flush even on failure: completed tasks' events are real. *)
    let sink = Ffc_obs.Ctx.sink c in
    Array.iter (fun s -> Ffc_obs.Sink.emit_raw sink s) traces;
    if sched then begin
      Ffc_obs.Ctx.emit c (Ffc_obs.Event.pool_map ~tasks:n ~jobs ~chunk);
      let chunks = ref [] in
      Array.iteri
        (fun slot log ->
          List.iter
            (fun (start, stop) -> chunks := (start, stop, slot) :: !chunks)
            log;
          let tasks = List.fold_left (fun a (s, e) -> a + (e - s)) 0 log in
          Ffc_obs.Metrics.Counter.add
            (Ffc_obs.Metrics.counter
               (Ffc_obs.Ctx.metrics c)
               (Printf.sprintf "pool.domain%d.tasks" slot))
            tasks)
        chunk_log;
      List.iter
        (fun (start, stop, domain) ->
          Ffc_obs.Ctx.emit c (Ffc_obs.Event.pool_chunk ~start ~stop ~domain))
        (List.sort compare !chunks)
    end);
  (match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  Array.map (function Some v -> v | None -> assert false) results

let parallel_init ?jobs n f =
  if n < 0 then invalid_arg "Pool.parallel_init: negative length";
  parallel_map ?jobs f (Array.init n Fun.id)
