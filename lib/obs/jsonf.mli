(** Shared JSON-fragment formatting used by every renderer (trace
    events, metric snapshots, provenance manifests) and by the CSV
    export, so numbers print identically everywhere. *)

val float_rt : float -> string
(** [%.17g]: enough digits that parsing the text recovers the exact
    double.  Non-finite values print as [inf]/[-inf]/[nan] (not valid
    JSON — use {!float_json} inside JSON). *)

val float_json : float -> string
(** {!float_rt} for finite floats, ["null"] otherwise. *)

val string : string -> string
(** A quoted, escaped JSON string literal. *)

val add_escaped : Buffer.t -> string -> unit
(** {!string}, appended to a buffer. *)

val obj : (string * string) list -> string
(** [obj [(k1, v1); ...]] is the one-line object [{"k1":v1,...}]: keys
    are escaped, values are already-rendered JSON fragments, and field
    order is kept. *)

(** {2 Field scraping}

    Minimal field extraction from the flat one-line JSON objects this
    repo itself renders (service replies, trace events, BENCH.json
    kernel rows) — enough for the churn driver, the trace aggregator
    and the bench comparator without a JSON parser dependency.  [key]
    must name a top-level or embedded field; the {e first} occurrence
    wins. *)

val after_key : string -> key:string -> int option
(** Position just after [{"key":}] in the line, if the key occurs. *)

val string_field : string -> key:string -> string option
val number_field : string -> key:string -> float option
val bool_field : string -> key:string -> bool option
