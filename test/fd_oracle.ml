(* The lone-column finite difference: every column of DF probed on its
   own, the full n x n result, no sparsity pattern and no probe groups.
   The production engine ([Jacobian.numeric_sparse] and the builders on
   top of it) must reproduce it bit for bit; this copy is the oracle the
   tests hold it to. *)

open Ffc_numerics
open Ffc_core

(* Same domain guard and step rule as the engine. *)
let domain_mode mode ~at ~h j =
  match mode with
  | (Jacobian.Central | Jacobian.Backward) when at.(j) -. h.(j) < 0. -> Jacobian.Forward
  | m -> m

let step_sizes ~dx at = Array.map (fun x -> dx *. (1. +. Float.abs x)) at

let numeric ?jobs ?(dx = 1e-7) ?(mode = Jacobian.Central) f ~at =
  let n = Array.length at in
  let h = step_sizes ~dx at in
  let col_mode = Array.init n (domain_mode mode ~at ~h) in
  (* The shared base evaluation f(at) is forced once, before the fan-out,
     so the per-column closures only read it — no lazy cell is raced
     between domains. *)
  let base =
    if Array.exists (fun m -> m <> Jacobian.Central) col_mode then Some (f at) else None
  in
  let column j =
    let bump delta =
      let x = Array.copy at in
      x.(j) <- x.(j) +. delta;
      f x
    in
    let h = h.(j) in
    match col_mode.(j) with
    | Jacobian.Central ->
      let plus = bump h and minus = bump (-.h) in
      Array.init n (fun i -> (plus.(i) -. minus.(i)) /. (2. *. h))
    | Jacobian.Forward ->
      let plus = bump h and base = Option.get base in
      Array.init n (fun i -> (plus.(i) -. base.(i)) /. h)
    | Jacobian.Backward ->
      let minus = bump (-.h) and base = Option.get base in
      Array.init n (fun i -> (base.(i) -. minus.(i)) /. h)
  in
  (* Columns are independent and each is a deterministic function of
     (f, at, j), so fanning them out over the pool returns bit-identical
     matrices at every jobs count.  Small systems stay sequential: a
     domain spawn costs more than a handful of map evaluations. *)
  let jobs = Stdlib.min (Pool.effective_jobs ?jobs ()) (Stdlib.max 1 (n / 8)) in
  let cols = Pool.parallel_init ~jobs n column in
  Mat.init n n (fun i j -> cols.(j).(i))
