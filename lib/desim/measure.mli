(** Measurement collection for simulation runs.

    Tracks time-weighted per-(connection, hop) occupancy (the simulated
    counterpart of the model's mean queue lengths Q^a_i), end-to-end
    delay samples, and delivery and drop counts.  Occupancy slots are
    contiguous arrays addressed by precomputed offsets — no hashing, no
    key tuples, no allocation on the per-packet path.  [reset] discards
    history at the end of a warmup period or control window while
    preserving instantaneous occupancy, so statistics cover only the
    measured window. *)

type t

val create : paths:int array array -> t
(** One occupancy slot per (connection, hop): [paths.(i)] is connection
    [i]'s gateway path and only its length matters.  Statistics windows
    start at time 0. *)

val slot : t -> conn:int -> hop:int -> int
(** The slot of connection [conn]'s [hop]-th gateway.  Only valid for
    [hop < length paths.(conn)]. *)

val incr : t -> slot:int -> now:float -> unit

val decr : t -> slot:int -> now:float -> unit
(** Raises [Invalid_argument] when occupancy would go negative. *)

val occupancy : t -> slot:int -> int
(** Instantaneous occupancy. *)

val mean_occupancy : t -> slot:int -> now:float -> float
(** Time-average occupancy since creation or the last [reset]. *)

val reset : t -> now:float -> unit
(** Restarts every time average and delay/delivery/drop statistic at
    [now], keeping current occupancy levels. *)

val record_delay : t -> conn:int -> float -> unit

val delay_mean : t -> conn:int -> float
(** 0 when no samples. *)

val delay_ci95 : t -> conn:int -> float

val delay_count : t -> conn:int -> int

val count_delivery : t -> conn:int -> unit

val deliveries : t -> conn:int -> int

val count_drop : t -> conn:int -> unit
(** A packet of the connection was dropped (finite-buffer gateways). *)

val drops : t -> conn:int -> int
(** Drops since creation or the last [reset]. *)
