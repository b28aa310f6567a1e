(** The gateway service's line protocol.

    One request per line, one JSON-object response per line.  Requests
    are plain text (easy to type into a socket by hand); responses are
    self-contained JSON objects rendered with {!Ffc_obs.Jsonf}, so the
    response stream doubles as the admission-decision log and obeys the
    trace byte-identity contract: model values and logical timestamps
    only, never wall-clock time.

    Request grammar (whitespace-separated; [key=value] fields may come
    in any order after the positional part):

    {v
    add [NAME] [t=TIME]                 join: NAME picks a specific idle
                                        slot, omitted = first idle slot
    batch                               open a batch bracket: subsequent
                                        adds are buffered and admitted
                                        together on "end"
    end                                 close the bracket: one rank-k
                                        solve, one reply per member plus
                                        a trailing batch summary
    remove NAME [t=TIME]                leave
    query [t=TIME]                      status + supervised verdict
    stats [t=TIME]                      counters snapshot (never shed;
                                        stale=true when degraded)
    metrics [prom]                      live metrics registry, compact
                                        JSON or Prometheus text ("prom")
    snapshot                            force a state snapshot now
    shutdown                            snapshot (if configured) and stop
    v}

    [t] is the request's {e logical} arrival time (the churn driver
    stamps its Poisson arrivals); omitted means "immediately after the
    previous request".  For compatibility [add] also accepts a
    [size=SIZE] field, checked as a number and then discarded: the
    engine admits on the network state alone, and the churn driver
    schedules each departure from the document size it drew itself. *)

type add = { conn : string option; time : float option }
(** The payload of one [add] request — also the unit a batch bracket
    accumulates. *)

type request =
  | Add of add
  | Batch_begin
  | Batch_end
  | Remove of { conn : string; time : float option }
  | Query of { time : float option }
  | Stats of { time : float option }
  | Metrics of { prom : bool }
  | Snapshot
  | Shutdown

val parse : string -> (request, string) result
(** Parse one request line.  Blank lines and [#]-comments are rejected
    with a descriptive error (the server replies with an error object
    rather than dying). *)

val render : request -> string
(** The canonical request line for [req] — [parse (render r)] is [Ok r].
    Used by the churn driver. *)

(** {2 Response scraping}

    Minimal field extraction from the service's own flat JSON responses
    — enough for the churn driver and the CI smoke scripts to read
    decisions without a JSON parser dependency.  [key] must name a
    top-level or embedded field; the {e first} occurrence wins.
    (Aliases of the {!Ffc_obs.Jsonf} scrapers, which the trace
    aggregator and bench comparator share.) *)

val json_string_field : string -> key:string -> string option
val json_number_field : string -> key:string -> float option
val json_bool_field : string -> key:string -> bool option
