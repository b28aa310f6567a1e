open Ffc_numerics

let check ~mu rates =
  if not (mu > 0.) then invalid_arg "Fair_share: mu must be positive";
  Array.iter
    (fun r ->
      if (not (Float.is_finite r)) || r < 0. then
        invalid_arg "Fair_share: rates must be finite and non-negative")
    rates

let fair_cumulative_load rates i =
  if i < 0 || i >= Array.length rates then
    invalid_arg "Fair_share.fair_cumulative_load: index out of bounds";
  let ri = rates.(i) in
  Array.fold_left (fun acc r -> acc +. Float.min r ri) 0. rates

(* Sorted-order queue recursion.  [sorted] is the increasing rate vector;
   returns queues in sorted order.  After the first saturated level every
   later connection with positive rate saturates too (T is nondecreasing). *)
let queues_sorted ~mu sorted =
  let n = Array.length sorted in
  let q = Array.make n 0. in
  let partial_t = ref 0. in
  let partial_q = ref 0. in
  let saturated = ref false in
  for i = 0 to n - 1 do
    (* T_i = partial sum of smaller rates + (N - i) * r_i. *)
    let t = !partial_t +. (float_of_int (n - i) *. sorted.(i)) in
    if !saturated || t >= mu then begin
      saturated := true;
      q.(i) <- (if sorted.(i) > 0. then Float.infinity else 0.)
    end
    else begin
      let gi = Mm1.g (t /. mu) in
      q.(i) <- (gi -. !partial_q) /. float_of_int (n - i);
      (* Guard against negative round-off. *)
      if q.(i) < 0. then q.(i) <- 0.;
      partial_q := !partial_q +. q.(i)
    end;
    partial_t := !partial_t +. sorted.(i)
  done;
  q

let queue_lengths ~mu rates =
  check ~mu rates;
  let n = Array.length rates in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare rates.(a) rates.(b)) order;
  let sorted = Array.map (fun idx -> rates.(idx)) order in
  let q_sorted = queues_sorted ~mu sorted in
  let q = Array.make n 0. in
  Array.iteri (fun pos idx -> q.(idx) <- q_sorted.(pos)) order;
  q

let total_queue ~mu rates =
  check ~mu rates;
  Mm1.g (Vec.sum rates /. mu)

let level_rates rates =
  let sorted = Vec.sorted_increasing rates in
  Array.mapi
    (fun j r -> if j = 0 then r else r -. sorted.(j - 1))
    sorted

let decomposition rates =
  Array.iter
    (fun r ->
      if (not (Float.is_finite r)) || r < 0. then
        invalid_arg "Fair_share.decomposition: rates must be finite and non-negative")
    rates;
  let n = Array.length rates in
  let sorted = Vec.sorted_increasing rates in
  let increments = level_rates rates in
  Array.init n (fun i ->
      Array.init n (fun j ->
          (* Connection i participates in level j iff its rate reaches the
             level's threshold sorted.(j). *)
          if rates.(i) >= sorted.(j) then increments.(j) else 0.))

(* Bit identity with the probe: the zero slots sorted ahead of it see
   T = 0 and queue 0, so the probe's level is [queues_sorted]'s step with
   both partial sums 0 and N − i = k + 1, computed here with the same
   operations in the same order. *)
let zero_rate_sojourn ~mu rates =
  let probe = 1e-9 *. mu in
  let k = ref 0 and above = ref true in
  Array.iter
    (fun r ->
      if r > 0. then begin
        incr k;
        if not (r > probe) then above := false
      end)
    rates;
  if not !above then None
  else
    let levels = float_of_int (!k + 1) in
    let t = 0. +. (levels *. probe) in
    if t >= mu then Some Float.infinity
    else
      let q = (Mm1.g (t /. mu) -. 0.) /. levels in
      Some ((if q < 0. then 0. else q) /. probe)
