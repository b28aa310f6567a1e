(* The benchmark's own arithmetic: order statistics, failure counting,
   span self time and request latency rules.  Kept free of I/O so the
   unit tests in test_bstats.ml can pin every rule. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Median of a non-empty list (mean of the two middle values when the
   count is even); 0 for the empty list. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = List.fold_left ( +. ) 0. xs

let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

(* Nearest-rank tail percentile with at least [min_beyond] samples
   strictly beyond the chosen rank.  Returns [(q, value)] where [q] is
   the percentile actually reported: [want] when the sample is large
   enough, otherwise the highest percentile that still leaves
   [min_beyond] samples above it.  [None] when fewer than
   [min_beyond + 1] samples exist. *)
let tail_percentile ?(min_beyond = 10) ~want xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < min_beyond + 1 then None
  else
    let rank = int_of_float (Float.ceil (want *. float_of_int n)) - 1 in
    let k = max 0 (min rank (n - 1 - min_beyond)) in
    Some (float_of_int (k + 1) /. float_of_int n, a.(k))

(* How one reply counts against the run.  A refusal is a failure: an
   [ok:false] reply, a missing reply, or an add shed at ingress by the
   overload ladder.  A ρ or min-ratio reject is a correct answer. *)
type outcome = Served | Failed

let classify_reply = function
  | None -> Failed
  | Some line ->
    let field k = Ffc_obs.Jsonf.string_field line ~key:k in
    if Ffc_obs.Jsonf.bool_field line ~key:"ok" <> Some true then Failed
    else if field "op" = Some "add" && field "tier" = Some "shed" then Failed
    else Served

let failed_frac outcomes =
  let n = List.length outcomes in
  if n = 0 then 0.
  else
    let f = List.length (List.filter (fun o -> o = Failed) outcomes) in
    float_of_int f /. float_of_int n

(* A unit is what the client sends in one go: a single request line, or
   a whole [batch ... end] bracket.  Every reply of a unit gets the
   unit's round trip as its latency, because a bracket member's verdict
   only arrives at [end].  A bracket still open when the run stops (its
   [end] never answered) has no verdicts: each expected reply counts as
   failed and contributes no latency sample. *)
type unit_result = {
  expected : int;  (** Replies the unit should produce. *)
  replies : string list;  (** Replies actually read, in order. *)
  rtt : float option;  (** Send to last reply; [None] if unanswered. *)
}

let unit_latencies u =
  match u.rtt with
  | Some rtt when List.length u.replies = u.expected ->
    List.map (fun _ -> rtt) u.replies
  | _ -> []

let unit_outcomes u =
  if u.rtt = None || List.length u.replies <> u.expected then
    List.init u.expected (fun _ -> Failed)
  else List.map (fun r -> classify_reply (Some r)) u.replies

(* Self time of trace spans, from the span events in stream order.  A
   span's parent is the span open when it started: ids are not used,
   because spans captured inside a pool task restart their numbering.
   Self time is the span's wall time minus the wall time of its direct
   children, clamped at zero (children run by parallel tasks can
   overlap and cover the whole parent).  Returns the total self time per
   span name, in first-seen order; an end without a matching start is
   ignored. *)
type span_event = Start of string | End of string * float

let self_times events =
  let order = ref [] and totals = Hashtbl.create 16 in
  let add name v =
    match Hashtbl.find_opt totals name with
    | Some t -> Hashtbl.replace totals name (t +. v)
    | None ->
      order := name :: !order;
      Hashtbl.replace totals name v
  in
  (* Stack of open spans: (name, wall covered by finished children). *)
  let stack = ref [] in
  List.iter
    (function
      | Start name -> stack := (name, ref 0.) :: !stack
      | End (name, wall) -> (
        match !stack with
        | (open_name, covered) :: rest when open_name = name ->
          stack := rest;
          add name (Float.max 0. (wall -. !covered));
          (match rest with (_, c) :: _ -> c := !c +. wall | [] -> ())
        | _ -> ()))
    events;
  List.rev_map (fun n -> (n, Hashtbl.find totals n)) !order

(* One trace line as a span event ([wall_ns] converted to ms), or
   [None] for every other event. *)
let span_event_of_line line =
  let str k = Ffc_obs.Jsonf.string_field line ~key:k in
  match str "ev" with
  | Some "span.start" -> Option.map (fun n -> Start n) (str "name")
  | Some "span.end" -> (
    match (str "name", Ffc_obs.Jsonf.number_field line ~key:"wall_ns") with
    | Some n, Some ns -> Some (End (n, ns /. 1e6))
    | _ -> None)
  | _ -> None

(* Completion rates over [windows] equal slices of [t0, t1]
   (completions in the slice / slice length).  [events] are
   (completion time, completions) pairs. *)
let window_rates ~windows ~t0 ~t1 events =
  let width = (t1 -. t0) /. float_of_int windows in
  let counts = Array.make windows 0 in
  List.iter
    (fun (t, k) ->
      let i = int_of_float ((t -. t0) /. width) in
      if i >= 0 && i < windows then counts.(i) <- counts.(i) + k)
    events;
  Array.to_list (Array.map (fun c -> float_of_int c /. width) counts)
