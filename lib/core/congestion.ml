open Ffc_numerics

type style = Aggregate | Individual

let style_name = function Aggregate -> "aggregate" | Individual -> "individual"

let aggregate queues = Vec.sum queues

(* Σ_k min(Q_k, qi), summed in k order from 0. so every partial sum
   keeps the bits of a [Float.min] fold, with an accumulator that stays
   unboxed.  The min is [Float.min] on every value that reaches the sum:
   it is NaN when either side is NaN, so a NaN queue from a custom
   discipline still poisons the measure (and [Signal.eval] raises); it
   may pick +0. where [Float.min] picks -0., but the accumulator starts
   at +0. and never becomes -0., so adding either zero gives the same
   bits. *)
let sum_min queues qi =
  let acc = ref 0. in
  for k = 0 to Array.length queues - 1 do
    let q = queues.(k) in
    acc := !acc +. (if q < qi || Float.is_nan q then q else qi)
  done;
  !acc

let individual queues i =
  if i < 0 || i >= Array.length queues then
    invalid_arg "Congestion.individual: index out of bounds";
  sum_min queues queues.(i)

let weighted_individual ~weights queues i =
  if Array.length weights <> Array.length queues then
    invalid_arg "Congestion.weighted_individual: weights length mismatch";
  if i < 0 || i >= Array.length queues then
    invalid_arg "Congestion.weighted_individual: index out of bounds";
  let per_weight_i = queues.(i) /. weights.(i) in
  let acc = ref 0. in
  Array.iteri
    (fun k qk -> acc := !acc +. (weights.(k) *. Float.min (qk /. weights.(k)) per_weight_i))
    queues;
  !acc

let weighted_measures ~weights queues =
  Array.mapi (fun i _ -> weighted_individual ~weights queues i) queues

let measures style queues =
  match style with
  | Aggregate ->
    let c = aggregate queues in
    Array.map (fun _ -> c) queues
  | Individual -> Array.map (sum_min queues) queues
