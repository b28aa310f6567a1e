(** The event scheduler: the O(1)-amortized {!Timing_wheel}.

    Coded events pop in [(time, schedule sequence)] order — the
    determinism contract of {!Sim}.  The binary {!Event_heap} is the
    wheel's test oracle: a property test checks that both pop the same
    order on randomized schedules.  Popped fields are read back through
    accessors instead of a returned tuple so that the hot path
    allocates nothing. *)

type kind =
  | Wheel of { tick : float }
      (** [tick]: level-0 slot width, ideally near the mean event
          spacing; see {!auto_tick}. *)

type t

val create : kind -> t
(** Raises [Invalid_argument] for a non-positive or non-finite
    [tick]. *)

val auto_tick : events_per_time:float -> float
(** A good wheel tick for a workload expected to execute
    [events_per_time] events per simulated time unit: the mean event
    spacing, clamped to a sane range.  Any positive value is correct;
    this one keeps ready-heap occupancy near one event per tick. *)

val schedule : t -> time:float -> handler:int -> a:int -> b:int -> unit
(** Raises [Invalid_argument] on non-finite or negative [time]. *)

val pop : t -> bool
(** Removes the earliest event; [false] when empty.  On [true], read
    the event through {!popped_time} .. {!popped_b} until the next
    [pop]. *)

val popped_time : t -> float

val popped_handler : t -> int

val popped_a : t -> int

val popped_b : t -> int

val next_time : t -> float
(** Earliest pending time; [infinity] when empty. *)

val size : t -> int
