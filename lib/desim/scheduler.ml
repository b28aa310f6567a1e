type kind = Wheel of { tick : float }
type t = Timing_wheel.t

let auto_tick ~events_per_time =
  if (not (Float.is_finite events_per_time)) || events_per_time <= 0. then 1.
  else Float.min 1e6 (Float.max 1e-9 (1. /. events_per_time))

let create (Wheel { tick }) = Timing_wheel.create ~tick ()
let schedule = Timing_wheel.schedule
let pop = Timing_wheel.pop
let popped_time = Timing_wheel.popped_time
let popped_handler = Timing_wheel.popped_handler
let popped_a = Timing_wheel.popped_a
let popped_b = Timing_wheel.popped_b
let next_time = Timing_wheel.next_time
let size = Timing_wheel.size
