open Ffc_numerics

type size_dist =
  | Const of float
  | Exp of float
  | Uniform of float * float
  | Pareto of { alpha : float; xmin : float }

let parse_size_dist s =
  let num x = float_of_string_opt x in
  match String.split_on_char ':' s with
  | [ "const"; v ] -> (
    match num v with
    | Some v when v > 0. -> Ok (Const v)
    | _ -> Error "const needs a positive size")
  | [ "exp"; m ] -> (
    match num m with
    | Some m when m > 0. -> Ok (Exp m)
    | _ -> Error "exp needs a positive mean")
  | [ "uniform"; lo; hi ] -> (
    match (num lo, num hi) with
    | Some lo, Some hi when 0. < lo && lo <= hi -> Ok (Uniform (lo, hi))
    | _ -> Error "uniform needs bounds 0 < lo <= hi")
  | [ "pareto"; alpha; xmin ] -> (
    match (num alpha, num xmin) with
    | Some alpha, Some xmin when alpha > 0. && xmin > 0. ->
      Ok (Pareto { alpha; xmin })
    | _ -> Error "pareto needs positive alpha and xmin")
  | _ ->
    Error
      (Printf.sprintf
         "unknown size distribution %S (try const:S, exp:M, uniform:LO:HI, \
          pareto:ALPHA:XMIN)"
         s)

let describe_size_dist = function
  | Const v -> Printf.sprintf "const:%g" v
  | Exp m -> Printf.sprintf "exp:%g" m
  | Uniform (lo, hi) -> Printf.sprintf "uniform:%g:%g" lo hi
  | Pareto { alpha; xmin } -> Printf.sprintf "pareto:%g:%g" alpha xmin

let sample_size rng = function
  | Const v -> v
  | Exp m -> -.m *. Float.log (Rng.uniform_pos rng)
  | Uniform (lo, hi) -> lo +. ((hi -. lo) *. Rng.uniform rng)
  | Pareto { alpha; xmin } ->
    xmin *. Float.pow (Rng.uniform_pos rng) (-1. /. alpha)

type stats = {
  arrivals : int;
  admits : int;
  rejects : int;
  sheds : int;
  departures : int;
  queries : int;
  errors : int;
  min_min_ratio : float option;
  last_time : float;
}

let run ?(query_every = 0) ?(batch = 1) ?send_batch ~seed ~rate ~arrivals
    ~size_dist ~send () =
  if rate <= 0. then invalid_arg "Churn.run: rate must be positive";
  if arrivals < 0 then invalid_arg "Churn.run: arrivals must be >= 0";
  if batch < 1 then invalid_arg "Churn.run: batch must be >= 1";
  if batch > 1 && send_batch = None then
    invalid_arg "Churn.run: batch > 1 needs a send_batch callback";
  let rng = Rng.create seed in
  (* Pending departures, kept sorted by time (ties by insertion order —
     list append preserves it). Populations are service-sized, so a
     sorted list beats pulling in a heap. *)
  let pending = ref ([] : (float * string) list) in
  let insert t conn =
    let rec go = function
      | [] -> [ (t, conn) ]
      | (t', _) :: _ as l when t' > t -> (t, conn) :: l
      | x :: rest -> x :: go rest
    in
    pending := go !pending
  in
  let stats =
    ref
      {
        arrivals = 0;
        admits = 0;
        rejects = 0;
        sheds = 0;
        departures = 0;
        queries = 0;
        errors = 0;
        min_min_ratio = None;
        last_time = 0.;
      }
  in
  let sent = ref 0 in
  let note_time t = stats := { !stats with last_time = Float.max !stats.last_time t } in
  (* Account one add's reply: decision tallies, the running min-ratio,
     and the departure the admitted rate schedules.  Shared by the
     serial path and the batched member replies. *)
  let note_add_reply t size resp =
    if Protocol.json_bool_field resp ~key:"ok" = Some false then
      stats := { !stats with errors = !stats.errors + 1 }
    else
      match Protocol.json_string_field resp ~key:"decision" with
      | Some "admit" -> (
        stats := { !stats with admits = !stats.admits + 1 };
        (match Protocol.json_number_field resp ~key:"min_ratio" with
        | Some r ->
          let m =
            match !stats.min_min_ratio with
            | None -> r
            | Some m -> Float.min m r
          in
          stats := { !stats with min_min_ratio = Some m }
        | None -> ());
        match
          ( Protocol.json_string_field resp ~key:"conn",
            Protocol.json_number_field resp ~key:"rate" )
        with
        | Some conn, Some r when r > 0. -> insert (t +. (size /. r)) conn
        | Some conn, _ ->
          (* Admitted at zero rate should be impossible; remove it
             immediately so the slot is not leaked forever. *)
          insert t conn
        | None, _ -> ())
      | Some _ when Protocol.json_string_field resp ~key:"tier" = Some "shed" ->
        stats := { !stats with sheds = !stats.sheds + 1 }
      | Some _ -> stats := { !stats with rejects = !stats.rejects + 1 }
      | None -> stats := { !stats with errors = !stats.errors + 1 }
  in
  (* Adds buffered in an open batch bracket (newest first). *)
  let buffer = ref ([] : (float * float * string) list) in
  let flush_batch () =
    match !buffer with
    | [] -> ()
    | buf ->
      let buf = List.rev buf in
      buffer := [];
      let lines =
        (Protocol.render Batch_begin :: List.map (fun (_, _, l) -> l) buf)
        @ [ Protocol.render Batch_end ]
      in
      let replies = (Option.get send_batch) lines in
      (* One reply per member in order, then the batch summary. *)
      let rec pair bs rs =
        match (bs, rs) with
        | [], _ -> ()
        | (t, size, _) :: bs', r :: rs' ->
          note_add_reply t size r;
          pair bs' rs'
        | _ :: bs', [] ->
          (* A member reply is missing (transport trouble): count it as
             an error rather than silently losing the arrival. *)
          stats := { !stats with errors = !stats.errors + 1 };
          pair bs' []
      in
      let members =
        match List.rev replies with
        | _summary :: rev_members when List.length replies > List.length buf ->
          List.rev rev_members
        | _ -> replies
      in
      pair buf members
  in
  let maybe_query t =
    if query_every > 0 && !sent mod query_every = 0 then begin
      flush_batch ();
      let resp = send (Protocol.render (Query { time = Some t })) in
      incr sent;
      stats := { !stats with queries = !stats.queries + 1 };
      ignore resp
    end
  in
  let depart (t, conn) =
    (* The bracket must flush before any departure so the request
       stream the engine sees stays globally time-ordered. *)
    flush_batch ();
    let resp = send (Protocol.render (Remove { conn; time = Some t })) in
    incr sent;
    note_time t;
    if Protocol.json_bool_field resp ~key:"ok" = Some false then
      stats := { !stats with errors = !stats.errors + 1 }
    else stats := { !stats with departures = !stats.departures + 1 };
    maybe_query t
  in
  let arrive t =
    let size = sample_size rng size_dist in
    let line = Protocol.render (Add { conn = None; time = Some t }) in
    incr sent;
    note_time t;
    stats := { !stats with arrivals = !stats.arrivals + 1 };
    if batch <= 1 then note_add_reply t size (send line)
    else begin
      buffer := (t, size, line) :: !buffer;
      if List.length !buffer >= batch then flush_batch ()
    end;
    maybe_query t
  in
  let t = ref 0. in
  for _ = 1 to arrivals do
    t := !t +. (-.Float.log (Rng.uniform_pos rng) /. rate);
    (* Flush every departure scheduled before this arrival first, so the
       request stream is globally time-ordered. *)
    let rec flush () =
      match !pending with
      | (td, _) :: _ when td <= !t ->
        let ev = List.hd !pending in
        pending := List.tl !pending;
        depart ev;
        flush ()
      | _ -> ()
    in
    flush ();
    arrive !t
  done;
  flush_batch ();
  List.iter depart !pending;
  pending := [];
  !stats
