(** Canonical cache-key encoders for the core model types.

    Relies on the naming contract of docs/CACHING.md: a component's
    printed name uniquely determines its behavior (the repo's
    constructors embed every parameter in the name), so names plus the
    code-schema version address results faithfully.  Custom components
    built with [make]-style constructors must follow the same
    convention to be safely memoized. *)

open Ffc_topology

val add_network : Ffc_cache.Key.t -> Network.t -> unit
(** Keys the full topology via its canonical printed form
    ([Dsl.to_string]: %.17g capacities/latencies + connection paths). *)

val add_config : Ffc_cache.Key.t -> Feedback.config -> unit
(** Style, signal name, discipline name, optional weight vector. *)

val add_adjusters : Ffc_cache.Key.t -> Rate_adjust.t array -> unit

