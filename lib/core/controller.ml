open Ffc_numerics
open Ffc_topology

type t = { config : Feedback.config; adjusters : Rate_adjust.t array }

let create ~config ~adjusters =
  if Array.length adjusters = 0 then invalid_arg "Controller.create: no adjusters";
  { config; adjusters }

let homogeneous ~config ~adjuster ~n =
  if n <= 0 then invalid_arg "Controller.homogeneous: need n > 0";
  { config; adjusters = Array.make n adjuster }

let config t = t.config
let adjusters t = t.adjusters

let check_net t net rates =
  let n = Network.num_connections net in
  if Array.length t.adjusters <> n then
    invalid_arg "Controller: adjuster count does not match the network";
  (match t.config.Feedback.weights with
  | Some w when Array.length w <> n ->
    invalid_arg "Controller: feedback weight count does not match the network"
  | Some _ | None -> ());
  if Array.length rates <> n then
    invalid_arg "Controller: rate vector does not match the network"

let apply_feedback t ~b ~d rates =
  let n = Array.length rates in
  if Array.length t.adjusters <> n then
    invalid_arg "Controller.apply_feedback: adjuster count mismatch";
  if Array.length b <> n || Array.length d <> n then
    invalid_arg "Controller.apply_feedback: feedback length mismatch";
  Array.mapi
    (fun i r ->
      let dr = Rate_adjust.eval t.adjusters.(i) ~r ~b:b.(i) ~d:d.(i) in
      Float.max 0. (r +. dr))
    rates

let step t ~net rates =
  check_net t net rates;
  Ffc_obs.Ctx.incr_controller_steps ();
  let b, d = Feedback.evaluate t.config ~net ~rates in
  apply_feedback t ~b ~d rates

let map = step

(* Restricted map: F_i for i in [rows] only, via the row-restricted
   feedback pass.  The entries at [rows] are bit-for-bit those of
   [map]; the rest are 0.  Counted separately from full controller
   steps — a partial evaluation is not a step of the iteration. *)
let map_rows t ~net ~rows rates =
  check_net t net rates;
  Ffc_obs.Ctx.incr_named "controller.partial_steps";
  let b, d = Feedback.evaluate_rows t.config ~net ~rates ~rows in
  let out = Array.make (Array.length rates) 0. in
  Array.iter
    (fun i ->
      let dr = Rate_adjust.eval t.adjusters.(i) ~r:rates.(i) ~b:b.(i) ~d:d.(i) in
      out.(i) <- Float.max 0. (rates.(i) +. dr))
    rows;
  out

let step_subset t ~net ~mask rates =
  check_net t net rates;
  if Array.length mask <> Array.length rates then
    invalid_arg "Controller.step_subset: mask length mismatch";
  let b, d = Feedback.evaluate t.config ~net ~rates in
  Array.mapi
    (fun i r ->
      if mask.(i) then begin
        let dr = Rate_adjust.eval t.adjusters.(i) ~r ~b:b.(i) ~d:d.(i) in
        Float.max 0. (r +. dr)
      end
      else r)
    rates

let trajectory t ~net ~r0 ~steps =
  (* Store a private copy of r0: [Array.make] would alias the caller's
     array into out.(0), letting later caller mutation corrupt the
     recorded history. *)
  let out = Array.make (steps + 1) (Array.copy r0) in
  for k = 1 to steps do
    out.(k) <- step t ~net out.(k - 1)
  done;
  out

type outcome =
  | Converged of { steady : Vec.t; steps : int }
  | Cycle of { period : int; orbit : Vec.t array }
  | Diverged of { at_step : int }
  | No_convergence of { last : Vec.t }

let outcome_label = function
  | Converged _ -> "converged"
  | Cycle _ -> "cycle"
  | Diverged _ -> "diverged"
  | No_convergence _ -> "no_convergence"

(* The step count a reader most wants per outcome kind: convergence
   step, cycle period, divergence step; 0 when the loop just ran out. *)
let outcome_steps = function
  | Converged { steps; _ } -> steps
  | Cycle { period; _ } -> period
  | Diverged { at_step; _ } -> at_step
  | No_convergence _ -> 0

let observe_outcome outcome =
  Ffc_obs.Ctx.incr_named "controller.runs";
  Ffc_obs.Ctx.incr_named ("controller.runs." ^ outcome_label outcome);
  (match Ffc_obs.Ctx.tracing () with
  | Some c ->
    Ffc_obs.Ctx.emit c
      (Ffc_obs.Event.ctrl_outcome
         ~outcome:(outcome_label outcome)
         ~steps:(outcome_steps outcome))
  | None -> ());
  outcome

(* A rate vector counts as escaped when any component is non-finite or
   beyond the threshold.  NaN must be caught explicitly: [Float.abs nan
   > escape] is false, so a bare threshold comparison would let a NaN
   state sail on into the queueing layer, which rejects it with an
   exception instead of a clean [Diverged]. *)
let escaped ~escape v =
  Array.exists (fun x -> (not (Float.is_finite x)) || Float.abs x > escape) v

let run_map ?(tol = 1e-10) ?(max_steps = 20_000) ?(min_steps = 0) ?(max_period = 32)
    ?(escape = 1e12) ~map ~r0 () =
  (* A private copy of r0, for the same aliasing reason as [trajectory]:
     every window slot starts as the same array, and slot 0 may survive
     into the result (e.g. [No_convergence] at max_steps 0). *)
  let r0 = Array.copy r0 in
  let window = Array.make (4 * max_period) r0 in
  let window_len = Array.length window in
  let push k v = window.(k mod window_len) <- v in
  let get k = window.(k mod window_len) in
  push 0 r0;
  let result = ref None in
  (* The start itself may already be out of bounds (or NaN): report it
     as divergence at step 0 rather than crashing inside the queueing
     layer's rate validation. *)
  if escaped ~escape r0 then result := Some (Diverged { at_step = 0 });
  let quiet = ref 0 in
  let k = ref 0 in
  while !result = None && !k < max_steps do
    let cur = get !k in
    (* [Rate_adjust.eval] signals a NaN-producing adjuster with
       [Failure]; treat it as divergence at this step so one
       pathological cell degrades gracefully instead of killing a whole
       sweep. *)
    match (try Some (map !k cur) with Failure _ -> None) with
    | None ->
      incr k;
      result := Some (Diverged { at_step = !k })
    | Some next ->
    incr k;
    push !k next;
    if escaped ~escape next
    then result := Some (Diverged { at_step = !k })
    else begin
      let delta = Vec.dist_inf next cur /. (1. +. Vec.norm_inf next) in
      (match Ffc_obs.Ctx.tracing () with
      | Some c when Ffc_obs.Ctx.sample c !k ->
        Ffc_obs.Ctx.emit c
          (Ffc_obs.Event.ctrl_step ~step:!k ~residual:delta ~rates:next)
      | Some _ | None -> ());
      (* A time-varying map (e.g. a transient gateway cut) may sit at a
         temporary fixed point; no Converged/Cycle verdict is issued
         before [min_steps], when the caller warrants the map is still
         changing. *)
      if delta <= tol && !k >= min_steps then begin
        incr quiet;
        if !quiet >= 3 then result := Some (Converged { steady = next; steps = !k })
      end
      else begin
        quiet := 0;
        (* Cycle check once enough history accumulated.  A genuine cycle
           has lag-p mismatch far below the consecutive movement over the
           same span; a slowly converging orbit has them comparable, so a
           relative test separates the two. *)
        if !k >= window_len && !k >= min_steps then begin
          let scale = 1. +. Vec.norm_inf (get !k) in
          let found = ref None in
          let p = ref 2 in
          while !found = None && !p <= max_period do
            let span = 2 * !p in
            let match_err = ref 0. in
            let local_amp = ref 0. in
            for back = 0 to span - 1 do
              let a = get (!k - back) in
              match_err := Float.max !match_err (Vec.dist_inf a (get (!k - back - !p)));
              local_amp := Float.max !local_amp (Vec.dist_inf a (get (!k - back - 1)))
            done;
            if
              !local_amp > 1e-8 *. scale
              && !match_err <= Float.max (1e-12 *. scale) (1e-3 *. !local_amp)
            then found := Some !p;
            incr p
          done;
          match !found with
          | Some period ->
            let orbit = Array.init period (fun j -> get (!k - period + 1 + j)) in
            result := Some (Cycle { period; orbit })
          | None -> ()
        end
      end
    end
  done;
  observe_outcome
    (match !result with
    | Some outcome -> outcome
    | None -> No_convergence { last = get !k })

let run ?tol ?max_steps ?max_period ?escape t ~net ~r0 =
  check_net t net r0;
  run_map ?tol ?max_steps ?max_period ?escape ~map:(fun _ r -> step t ~net r) ~r0 ()

let run_async ?(tol = 1e-10) ?(max_steps = 100_000) ?(p = 0.5) ?(escape = 1e12) ~rng
    t ~net ~r0 =
  check_net t net r0;
  let n = Array.length r0 in
  let r = ref (Array.copy r0) in
  let result = ref None in
  if escaped ~escape r0 then result := Some (Diverged { at_step = 0 });
  let quiet = ref 0 in
  let k = ref 0 in
  while !result = None && !k < max_steps do
    incr k;
    let mask = Array.init n (fun _ -> Rng.uniform rng < p) in
    (* As in [run_map]: a NaN-producing adjuster ([Failure] from
       [Rate_adjust.eval], here possibly from the quiescence probe too)
       is divergence, not a crash. *)
    match
      (try
         let next = step_subset t ~net ~mask !r in
         if escaped ~escape next then Some (`Escaped)
         else begin
           (* Quiescence must be judged against the full synchronous map, not
              the masked step — a mask of all-false would otherwise look like
              convergence. *)
           let full = step t ~net next in
           let delta = Vec.dist_inf full next /. (1. +. Vec.norm_inf next) in
           Some (`Next (next, delta))
         end
       with Failure _ -> None)
    with
    | None | Some `Escaped -> result := Some (Diverged { at_step = !k })
    | Some (`Next (next, delta)) ->
      if delta <= tol then begin
        incr quiet;
        if !quiet >= 3 then result := Some (Converged { steady = next; steps = !k })
      end
      else quiet := 0;
      r := next
  done;
  observe_outcome
    (match !result with
    | Some outcome -> outcome
    | None -> No_convergence { last = !r })

let steady_state ?(tol = 1e-8) t ~net rates =
  let next = step t ~net rates in
  Vec.dist_inf next rates <= tol *. (1. +. Vec.norm_inf rates)
