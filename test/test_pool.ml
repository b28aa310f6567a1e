open Ffc_numerics
open Test_util

(* The pool must agree with Array.map / Array.init in input order, at
   every jobs setting, including jobs > length and empty inputs. *)
let test_map_matches_sequential () =
  let input = Array.init 100 (fun i -> i) in
  let expected = Array.map (fun i -> i * i) input in
  List.iter
    (fun jobs ->
      let got = Pool.parallel_map ~jobs (fun i -> i * i) input in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        expected got)
    [ 1; 2; 3; 7; 200 ]

let test_init_matches_sequential () =
  let expected = Array.init 37 (fun i -> 3 * i) in
  Alcotest.(check (array int))
    "parallel_init" expected
    (Pool.parallel_init ~jobs:4 37 (fun i -> 3 * i))

let test_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Pool.parallel_map ~jobs:4 (fun i -> i) [||]);
  Alcotest.(check (array int))
    "singleton" [| 9 |]
    (Pool.parallel_map ~jobs:4 (fun i -> i * i) [| 3 |]);
  Alcotest.(check (array int)) "init 0" [||] (Pool.parallel_init ~jobs:4 0 Fun.id)

let test_exception_propagates () =
  let raised =
    try
      ignore
        (Pool.parallel_map ~jobs:3
           (fun i -> if i = 17 then failwith "task boom" else i)
           (Array.init 64 Fun.id));
      None
    with Failure msg -> Some msg
  in
  Alcotest.(check (option string)) "Failure propagated" (Some "task boom") raised;
  (* Sequential path propagates identically. *)
  Alcotest.check_raises "jobs=1 propagates" (Failure "task boom") (fun () ->
      ignore
        (Pool.parallel_map ~jobs:1
           (fun i -> if i = 2 then failwith "task boom" else i)
           (Array.init 4 Fun.id)))

(* Tasks run on several domains at once, and Alcotest's check output
   goes through one shared formatter: each task only records what it
   observed, and every assertion runs on the calling domain after the
   join. *)
let test_nested_rejected () =
  (* Spawning a pool from inside a pool task must raise Nested... *)
  let observed =
    Pool.parallel_map ~jobs:2
      (fun _ ->
        let on_worker = Pool.in_worker () in
        match Pool.parallel_map ~jobs:2 Fun.id [| 1; 2; 3 |] with
        | _ -> (on_worker, false)
        | exception Pool.Nested -> (on_worker, true))
      (Array.init 8 Fun.id)
  in
  Array.iteri
    (fun i (on_worker, saw_nested) ->
      check_true "task runs on a worker" on_worker;
      check_true (Printf.sprintf "task %d saw Nested" i) saw_nested)
    observed;
  check_true "flag cleared after the pool drains" (not (Pool.in_worker ()))

let test_nested_sequential_allowed () =
  (* ... but sequential execution (effective_jobs collapses to 1 inside
     a worker) composes fine — this is how run_all over experiments that
     themselves sweep in parallel stays safe. *)
  let observed =
    Pool.parallel_map ~jobs:2
      (fun i ->
        let inner =
          Pool.parallel_map
            ~jobs:(Pool.effective_jobs ())
            (fun j -> (10 * i) + j)
            [| 1; 2; 3 |]
        in
        (Pool.effective_jobs (), Array.fold_left ( + ) 0 inner))
      (Array.init 6 Fun.id)
  in
  Array.iteri
    (fun i (inner_jobs, s) ->
      Alcotest.(check int) "inner collapses to 1 job" 1 inner_jobs;
      Alcotest.(check int) (Printf.sprintf "sum %d" i) ((30 * i) + 6) s)
    observed

let test_default_jobs () =
  let saved = Pool.default_jobs () in
  check_true "default >= 1" (saved >= 1);
  Pool.set_default_jobs 3;
  Alcotest.(check int) "override visible" 3 (Pool.default_jobs ());
  Alcotest.(check int) "effective = default" 3 (Pool.effective_jobs ());
  Alcotest.(check int) "explicit wins" 5 (Pool.effective_jobs ~jobs:5 ());
  Pool.set_default_jobs saved;
  Alcotest.check_raises "jobs 0 rejected"
    (Invalid_argument "Pool.set_default_jobs: jobs must be >= 1") (fun () ->
      Pool.set_default_jobs 0)

let suites =
  [
    ( "pool",
      [
        case "parallel_map matches Array.map" test_map_matches_sequential;
        case "parallel_init matches Array.init" test_init_matches_sequential;
        case "empty and singleton inputs" test_empty_and_singleton;
        case "exception propagation" test_exception_propagates;
        case "nested use rejected" test_nested_rejected;
        case "nested sequential allowed" test_nested_sequential_allowed;
        case "default jobs control" test_default_jobs;
      ] );
  ]
