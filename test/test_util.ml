(* Shared helpers for the test suite. *)

let check_float ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %.2g)" msg expected actual tol

let check_float_rel ?(tol = 1e-6) msg expected actual =
  let scale = Float.max 1. (Float.abs expected) in
  if Float.abs (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.12g, got %.12g (rel tol %.2g)" msg expected actual tol

let check_vec ?(tol = 1e-9) msg expected actual =
  if Array.length expected <> Array.length actual then
    Alcotest.failf "%s: dimension mismatch %d vs %d" msg (Array.length expected)
      (Array.length actual);
  Array.iteri
    (fun i e ->
      if Float.abs (e -. actual.(i)) > tol then
        Alcotest.failf "%s: component %d: expected %.12g, got %.12g" msg i e actual.(i))
    expected

(* Oracle for Theorem 4's triangular stability matrix: every entry
   strictly above the diagonal is at most [tol] in absolute value. *)
let is_lower_triangular ?(tol = 1e-9) m =
  let open Ffc_numerics in
  let ok = ref true in
  for i = 0 to Mat.rows m - 1 do
    for j = i + 1 to Mat.cols m - 1 do
      if Float.abs (Mat.get m i j) > tol then ok := false
    done
  done;
  !ok

let check_true msg cond = Alcotest.(check bool) msg true cond
let check_false msg cond = Alcotest.(check bool) msg false cond

let case name f = Alcotest.test_case name `Quick f

(* Registers a qcheck property as an alcotest case with a deterministic
   seed so failures are reproducible. *)
let prop name ?(count = 200) gen law =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xffc |])
    (QCheck2.Test.make ~name ~count gen law)
