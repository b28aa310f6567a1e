(* Unit tests for the benchmark's own arithmetic. *)

open Bstats

let feq = Alcotest.float 1e-12

let percentile_rule () =
  let xs = List.init 2000 (fun i -> float_of_int (i + 1)) in
  (* 2000 samples: p99 is rank 1980, with 20 samples beyond it. *)
  Alcotest.(check (option (pair feq feq))) "p99 of 2000" (Some (0.99, 1980.))
    (tail_percentile ~want:0.99 xs);
  (* 500 samples: p99 would leave 5 beyond, so fall back to the rank
     leaving exactly 10 beyond. *)
  let ys = List.init 500 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option (pair feq feq))) "fallback keeps 10 beyond" (Some (0.98, 490.))
    (tail_percentile ~want:0.99 ys);
  Alcotest.(check (option (pair feq feq))) "too few" None
    (tail_percentile ~want:0.99 (List.init 10 float_of_int));
  Alcotest.(check feq) "median even" 2.5 (median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check feq) "median odd" 3. (median [ 5.; 1.; 3. ])

let failure_counting () =
  let reject = {|{"ok":true,"op":"add","seq":3,"decision":"reject","tier":"full"}|} in
  let shed = {|{"ok":true,"op":"add","seq":4,"decision":"reject","tier":"shed"}|} in
  let stale = {|{"ok":true,"op":"query","seq":5,"tier":"shed","stale":true}|} in
  let err = {|{"ok":false,"seq":6,"error":"unknown connection"}|} in
  let check name want line =
    Alcotest.(check bool) name true (classify_reply line = want)
  in
  check "reject is served" Served (Some reject);
  check "shed add fails" Failed (Some shed);
  check "stale query is served" Served (Some stale);
  check "ok:false fails" Failed (Some err);
  check "missing reply fails" Failed None;
  Alcotest.(check feq) "failed_frac" 0.5
    (failed_frac (List.map (fun l -> classify_reply (Some l)) [ reject; shed; stale; err ]))

let self_time () =
  (* a(10) > [ b(4) > c(1) ; d(3) ] ; e(2) *)
  let evs =
    [
      Start "a"; Start "b"; Start "c"; End ("c", 1.); End ("b", 4.);
      Start "d"; End ("d", 3.); End ("a", 10.); Start "e"; End ("e", 2.);
    ]
  in
  let got = self_times evs in
  List.iter
    (fun (n, v) -> Alcotest.(check feq) ("self " ^ n) v (List.assoc n got))
    [ ("a", 3.); ("b", 3.); ("c", 1.); ("d", 3.); ("e", 2.) ];
  (* Overlapping parallel children cannot drive self time negative. *)
  let par =
    [ Start "p"; Start "t"; End ("t", 5.); Start "t"; End ("t", 5.); End ("p", 6.) ]
  in
  Alcotest.(check feq) "clamped" 0. (List.assoc "p" (self_times par));
  Alcotest.(check bool) "span line" true
    (span_event_of_line
       {|{"ev":"span.end","id":"0.1","name":"jac.sparse","lc":6,"wall_ns":2000000}|}
     = Some (End ("jac.sparse", 2.)))

let bracket_latency () =
  let member = {|{"ok":true,"op":"add","seq":1,"decision":"admit","tier":"full"}|} in
  let summary = {|{"ok":true,"op":"batch","seq":3}|} in
  let closed = { expected = 3; replies = [ member; member; summary ]; rtt = Some 0.25 } in
  Alcotest.(check (list feq)) "every reply gets the bracket round trip" [ 0.25; 0.25; 0.25 ]
    (unit_latencies closed);
  Alcotest.(check bool) "closed bracket served" true
    (List.for_all (( = ) Served) (unit_outcomes closed));
  let open_ = { expected = 3; replies = []; rtt = None } in
  Alcotest.(check (list feq)) "open bracket: no samples" [] (unit_latencies open_);
  Alcotest.(check int) "open bracket: every member failed" 3
    (List.length (List.filter (( = ) Failed) (unit_outcomes open_)))

let window_rates_split () =
  (* 2 s run in 4 slices of 0.5 s: completions land in their slice;
     a bracket's replies all count at its completion time. *)
  let events = [ (0.1, 1); (0.2, 1); (0.7, 8); (1.9, 1); (2.5, 3) ] in
  Alcotest.(check (list feq)) "per-slice rates" [ 4.; 16.; 0.; 2. ]
    (window_rates ~windows:4 ~t0:0. ~t1:2. events)

let () =
  Alcotest.run "perfbench"
    [
      ( "bstats",
        [
          Alcotest.test_case "percentile with 10 beyond" `Quick percentile_rule;
          Alcotest.test_case "failed_frac counting" `Quick failure_counting;
          Alcotest.test_case "self time of nested spans" `Quick self_time;
          Alcotest.test_case "bracket latency rule" `Quick bracket_latency;
          Alcotest.test_case "window rates" `Quick window_rates_split;
        ] );
    ]
