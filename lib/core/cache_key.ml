(* Canonical cache-key encoders for the core model types.

   The determinism contract these rely on (documented in
   docs/CACHING.md): a component's *name* uniquely determines its
   behavior.  The repo's constructors uphold it — adjusters, signals
   and disciplines all embed their parameters in their printed names
   (e.g. "additive(eta=0.1,beta=0.5)", "weighted-fair-share(..)") —
   so a name plus the code-schema version is a faithful key fragment.
   Custom [make]/[make_adjuster] components must follow the same
   convention to be safely memoized. *)

open Ffc_queueing
open Ffc_topology
module Key = Ffc_cache.Key

let add_network k net = Key.str k (Dsl.to_string net)

let add_config k (c : Feedback.config) =
  Key.str k (Congestion.style_name c.style);
  Key.str k (Signal.name c.signal);
  Key.str k (Service.name c.discipline);
  match c.weights with
  | None -> Key.bool k false
  | Some w ->
    Key.bool k true;
    Key.floats k w

let add_adjusters k adjusters =
  Key.strs k (Array.to_list (Array.map Rate_adjust.name adjusters))
