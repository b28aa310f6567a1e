open Ffc_numerics
open Ffc_core

type verdict = {
  outcome : Controller.outcome;
  attempts : int;
  damping : float;
  faults : string list;
  final : Vec.t option;
  baselines : Vec.t option;
  min_ratio : float option;
  recovered : bool;
  total_steps : int;
  wall_seconds : float;
}

(* Deterministic JSON rendering of a verdict: model values only —
   [wall_seconds] is deliberately excluded so two runs with identical
   inputs render identical bytes (same contract as the trace events).
   Numbers go through [Jsonf] so parsing the text recovers the exact
   doubles. *)
let verdict_to_json ?label v =
  let module J = Ffc_obs.Jsonf in
  let vec = function
    | None -> "null"
    | Some v ->
      let b = Buffer.create (Array.length v * 12) in
      Buffer.add_char b '[';
      Array.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (J.float_json x))
        v;
      Buffer.add_char b ']';
      Buffer.contents b
  in
  let strings l =
    "[" ^ String.concat "," (List.map J.string l) ^ "]"
  in
  (* One numeric slot per outcome, as in the ctrl.outcome trace event:
     convergence step, cycle period, divergence step, or 0. *)
  let steps =
    match v.outcome with
    | Controller.Converged { steps; _ } -> steps
    | Controller.Cycle { period; _ } -> period
    | Controller.Diverged { at_step } -> at_step
    | Controller.No_convergence _ -> 0
  in
  J.obj
    ((match label with Some l -> [ ("label", J.string l) ] | None -> [])
    @ [
        ("outcome", J.string (Controller.outcome_label v.outcome));
        ("steps", string_of_int steps);
        ("attempts", string_of_int v.attempts);
        ("damping", J.float_json v.damping);
        ("recovered", string_of_bool v.recovered);
        ("total_steps", string_of_int v.total_steps);
        ("faults", strings v.faults);
        ("final", vec v.final);
        ("baselines", vec v.baselines);
        ( "min_ratio",
          match v.min_ratio with None -> "null" | Some x -> J.float_json x );
      ])

(* Scale every adjustment by [factor] — the "halve the gain" retry.
   The damped algorithm has the same zero set, so its declared b_SS
   (and with it the reservation baseline) is unchanged. *)
let damped factor controller =
  if factor = 1. then controller
  else
    let adjusters =
      Array.map
        (fun adj ->
          let b_ss = Rate_adjust.declared_b_ss adj in
          Rate_adjust.make
            ~name:(Printf.sprintf "damped(%gx %s)" factor (Rate_adjust.name adj))
            ?b_ss
            (fun ~r ~b ~d -> factor *. Rate_adjust.eval adj ~r ~b ~d))
        (Controller.adjusters controller)
    in
    Controller.create ~config:(Controller.config controller) ~adjusters

let reservation_baselines controller ~net =
  let adjusters = Controller.adjusters controller in
  let b_ss = Array.map Rate_adjust.declared_b_ss adjusters in
  if Array.for_all Option.is_some b_ss then
    Some
      (Robustness.baselines
         ~signal:(Controller.config controller).Feedback.signal
         ~b_ss:(Array.map Option.get b_ss) ~net)
  else None

let orbit_mean orbit =
  let n = Array.length orbit.(0) in
  let acc = Array.make n 0. in
  Array.iter (Array.iteri (fun i x -> acc.(i) <- acc.(i) +. x)) orbit;
  Array.map (fun s -> s /. float_of_int (Array.length orbit)) acc

(* Tail mean of a non-convergent run: keep iterating the same injector
   (its histories and RNG streams are already positioned at [from_step])
   and average, stopping early if the orbit leaves the finite range. *)
let tail_mean inj ~from_step ~window last =
  let acc = Array.copy last in
  let count = ref 1 in
  let r = ref last in
  (try
     for j = 0 to window - 2 do
       let next = Injector.step inj ~step:(from_step + j) !r in
       if Array.exists (fun x -> not (Float.is_finite x)) next then raise Exit;
       Array.iteri (fun i x -> acc.(i) <- acc.(i) +. x) next;
       incr count;
       r := next
     done
   with Exit | Failure _ -> ());
  Array.map (fun s -> s /. float_of_int !count) acc

let run ?tol ?(max_steps = 20_000) ?max_period ?(escape = 1e12) ?(retries = 3)
    ?(retry_cycles = false) ?wall_budget ?(tail_window = 128) ?(plan = Fault.none)
    controller ~net ~r0 =
  Fault.validate plan ~net;
  let t0 = Unix.gettimeofday () in
  let n = Array.length r0 in
  let well_behaved =
    let bad = Fault.misbehaving plan ~n in
    Array.map not bad
  in
  let budget_left () =
    match wall_budget with
    | None -> true
    | Some budget -> Unix.gettimeofday () -. t0 < budget
  in
  let rec attempt a total_steps =
    let damping = Float.pow 0.5 (float_of_int a) in
    (match Ffc_obs.Ctx.tracing () with
    | Some ctx ->
      Ffc_obs.Ctx.emit ctx (Ffc_obs.Event.sup_attempt ~attempt:a ~damping)
    | None -> ());
    let c = damped damping controller in
    let inj = Injector.create ~plan c ~net in
    let outcome =
      Controller.run_map ?tol ~max_steps ~min_steps:(Fault.horizon plan) ?max_period
        ~escape ~map:(Injector.map inj) ~r0 ()
    in
    let steps_used =
      match outcome with
      | Controller.Converged { steps; _ } -> steps
      | Controller.Diverged { at_step } -> at_step
      | Controller.Cycle _ | Controller.No_convergence _ -> max_steps
    in
    let total_steps = total_steps + steps_used in
    let failed =
      match outcome with
      | Controller.Diverged _ -> true
      | Controller.Cycle _ -> retry_cycles
      | Controller.Converged _ | Controller.No_convergence _ -> false
    in
    if failed && a < retries && budget_left () then attempt (a + 1) total_steps
    else begin
      let final =
        match outcome with
        | Controller.Converged { steady; _ } -> Some steady
        | Controller.Cycle { orbit; _ } -> Some (orbit_mean orbit)
        | Controller.No_convergence { last } ->
          Some (tail_mean inj ~from_step:(Injector.steps_taken inj) ~window:tail_window last)
        | Controller.Diverged _ -> None
      in
      let baselines = reservation_baselines controller ~net in
      let min_ratio =
        match (final, baselines) with
        | Some final, Some baselines ->
          let best = ref Float.infinity in
          Array.iteri
            (fun i ok ->
              if ok && baselines.(i) > 0. then
                best := Float.min !best (final.(i) /. baselines.(i)))
            well_behaved;
          if Float.is_finite !best then Some !best else None
        | _ -> None
      in
      let recovered =
        a > 0
        &&
        match outcome with
        | Controller.Converged _ -> true
        | Controller.Cycle _ -> not retry_cycles
        | Controller.Diverged _ | Controller.No_convergence _ -> false
      in
      Ffc_obs.Ctx.incr_named "supervisor.runs";
      if a > 0 then Ffc_obs.Ctx.incr_named "supervisor.retried";
      if recovered then Ffc_obs.Ctx.incr_named "supervisor.recovered";
      (match Ffc_obs.Ctx.tracing () with
      | Some ctx ->
        (* [wall_seconds] stays out of the event: wall-clock time would
           break trace byte-identity across runs. *)
        Ffc_obs.Ctx.emit ctx
          (Ffc_obs.Event.sup_verdict
             ~outcome:(Controller.outcome_label outcome)
             ~attempts:(a + 1) ~recovered ~total_steps ?min_ratio ())
      | None -> ());
      {
        outcome;
        attempts = a + 1;
        damping;
        faults = Fault.describe plan;
        final;
        baselines;
        min_ratio;
        recovered;
        total_steps;
        wall_seconds = Unix.gettimeofday () -. t0;
      }
    end
  in
  attempt 0 0
