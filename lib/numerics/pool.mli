(** Multicore work pool on stdlib [Domain].

    [parallel_map] and [parallel_init] fan work out over OCaml 5 domains
    with chunked self-scheduling, while keeping results in input order —
    callers observe the same values (and can render byte-identical
    output) whatever the degree of parallelism.  The first exception
    raised by any task is re-raised, with its backtrace, from the
    calling domain.

    Spawning domains from inside a pool task is rejected ({!Nested}):
    nesting oversubscribes the machine and deadlocks nothing but wastes
    everything.  Sequential execution ([jobs = 1]) is allowed anywhere,
    and {!effective_jobs} collapses to 1 automatically inside a worker,
    so parallel entry points can be composed freely — the outermost one
    wins. *)

exception Nested
(** Raised when a task running on a pool worker attempts to spawn a
    nested pool ([jobs >= 2] from inside {!parallel_map} /
    {!parallel_init}). *)

val default_jobs : unit -> int
(** The process-wide default parallelism, initially
    [Domain.recommended_domain_count ()]. *)

val set_default_jobs : int -> unit
(** Overrides {!default_jobs}; must be >= 1.  Set once at startup (e.g.
    from a [--jobs] CLI flag). *)

val in_worker : unit -> bool
(** Whether the calling domain is currently executing a pool task. *)

val effective_jobs : ?jobs:int -> unit -> int
(** [jobs] if given, else {!default_jobs}; forced to 1 when called from
    inside a pool worker so that nested parallel entry points degrade to
    sequential instead of raising {!Nested}. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map ~jobs f a] is [Array.map f a] computed by up to [jobs]
    domains (default {!default_jobs}), results in input order.  [f] must
    be safe to call concurrently from several domains.  Raises {!Nested}
    when invoked with [jobs >= 2] from inside a pool task.

    Every [jobs] value runs through one runner: the calling domain plus
    [min jobs cores - 1] spawned domains pull chunks of tasks, and
    nothing is spawned at fan-out 1.  Domains beyond the physical cores
    ([Domain.recommended_domain_count ()]) never run concurrently and
    only add stop-the-world GC synchronization stalls, hence the clamp.
    [jobs >= 2] keeps its worker-context semantics ({!in_worker},
    {!Nested}) whatever the clamp leaves, and whenever a trace is live
    every task is captured from a fresh span scope and flushed in
    task-index order, so program behaviour — results and trace bytes —
    does not depend on [jobs] or on the machine's core count. *)

val parallel_init : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [parallel_init ~jobs n f] is [Array.init n f], parallelized as in
    {!parallel_map}. *)
