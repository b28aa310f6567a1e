type t = {
  sched : Scheduler.t;
  mutable clock : float;
  mutable handlers : (int -> int -> unit) array;
  mutable n_handlers : int;
  mutable events : int;
}

let default_scheduler = Scheduler.Wheel { tick = 0.015625 }

let create ?(scheduler = default_scheduler) () =
  {
    sched = Scheduler.create scheduler;
    clock = 0.;
    handlers = Array.make 8 (fun _ _ -> ());
    n_handlers = 0;
    events = 0;
  }

let now t = t.clock

let register t f =
  if t.n_handlers = Array.length t.handlers then begin
    let bigger = Array.make (2 * t.n_handlers) f in
    Array.blit t.handlers 0 bigger 0 t.n_handlers;
    t.handlers <- bigger
  end;
  t.handlers.(t.n_handlers) <- f;
  t.n_handlers <- t.n_handlers + 1;
  t.n_handlers - 1

let schedule_code t ~at ~handler ~a ~b =
  if not (Float.is_finite at) then invalid_arg "Sim.schedule: non-finite time";
  if at < t.clock then invalid_arg "Sim.schedule: time in the past";
  Scheduler.schedule t.sched ~time:at ~handler ~a ~b

let schedule_code_after t ~delay ~handler ~a ~b =
  if (not (Float.is_finite delay)) || delay < 0. then
    invalid_arg "Sim.schedule_after: bad delay";
  schedule_code t ~at:(t.clock +. delay) ~handler ~a ~b

let step t =
  if Scheduler.pop t.sched then begin
    t.clock <- Scheduler.popped_time t.sched;
    t.events <- t.events + 1;
    (t.handlers.(Scheduler.popped_handler t.sched))
      (Scheduler.popped_a t.sched) (Scheduler.popped_b t.sched);
    true
  end
  else false

let run ?until t =
  (match until with
  | None -> while step t do () done
  | Some stop -> while Scheduler.next_time t.sched <= stop && step t do () done);
  match until with
  | Some stop when stop > t.clock -> t.clock <- stop
  | Some _ | None -> ()

let pending t = Scheduler.size t.sched

let events t = t.events
