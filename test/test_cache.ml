(* The result cache: canonical keys, the memo protocol, corruption and
   invalidation behavior, and end-to-end determinism of the memoized
   kernels (cached values bit-identical to fresh ones at any jobs
   count). *)

open Ffc_cache
open Ffc_topology
open Ffc_core

let temp_dir () = Filename.temp_dir "ffc-cache-test" ""

(* Run [f cache dir] against a fresh store and always scrub it. *)
let with_temp_cache ?schema f =
  let dir = temp_dir () in
  let c = Cache.create ~dir ?schema () in
  Fun.protect
    ~finally:(fun () ->
      Store.clear (Cache.store c);
      if Sys.file_exists dir then Sys.rmdir dir)
    (fun () -> f c dir)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a b

let check_counters label c ~hits ~misses ~stores ~evictions =
  let k = Cache.counters c in
  Alcotest.(check (list int))
    (label ^ " counters [hits; misses; stores; evictions]")
    [ hits; misses; stores; evictions ]
    [ k.Cache.hits; k.Cache.misses; k.Cache.stores; k.Cache.evictions ]

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

let reference_key ?schema () =
  let k = Key.create ?schema ~tier:"pin" () in
  Key.str k "alpha";
  Key.int k 42;
  Key.float k 1.5;
  Key.floats k [| 0.; -0.; infinity |];
  Key.bool k true;
  Key.strs k [ "x"; "yz" ];
  Key.hex k

(* The digest is a pure function of the inputs — the same in every
   process, on every run, on every architecture (the encoding is fixed
   little-endian).  Pinning the exact hex makes any accidental change
   to the canonical encoding (which would silently orphan every
   on-disk cache) a test failure. *)
let test_key_pinned () =
  Alcotest.(check string)
    "pinned digest" "4c123e0fab23e4ecab83e6440548f0cb" (reference_key ());
  Alcotest.(check string)
    "stable across calls" (reference_key ()) (reference_key ())

let test_key_sensitivity () =
  let base = reference_key () in
  let variant ?(tier = "pin") build =
    let k = Key.create ~tier () in
    build k;
    Key.hex k
  in
  (* Every entry must hash differently from every other: changed field
     values, a changed tier, a changed schema — and, crucially, framing
     injectivity: concatenations that would collide under a naive
     (unframed) encoding must stay distinct. *)
  let all =
    [
      base;
      reference_key ~schema:"ffc0-test" ();
      variant (fun k -> Key.str k "alpha");
      variant (fun k -> Key.str k "alphb");
      variant (fun k ->
          Key.str k "al";
          Key.str k "pha");
      variant (fun k -> Key.strs k [ "x"; "yz" ]);
      variant (fun k -> Key.strs k [ "xy"; "z" ]);
      variant (fun k -> Key.float k 0.);
      variant (fun k -> Key.float k (-0.));
      variant (fun k -> Key.int k 0);
      variant (fun _ -> ());
      variant ~tier:"pin2" (fun _ -> ());
    ]
  in
  List.iteri
    (fun i hi ->
      List.iteri
        (fun j hj ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "keys %d and %d differ" i j)
              true (hi <> hj))
        all)
    all

(* ------------------------------------------------------------------ *)
(* Memo protocol                                                       *)
(* ------------------------------------------------------------------ *)

let memo_floats ~calls value () =
  let build k = Key.str k "memo-test" in
  Cache.memo ~tier:"test" ~build
    ~encode:(fun v -> Codec.encode (fun b -> Codec.put_floats b v))
    ~decode:Codec.get_floats
    (fun () ->
      incr calls;
      value)

let test_memo_hit_miss () =
  with_temp_cache (fun c _dir ->
      Cache.with_cache c (fun () ->
          let calls = ref 0 in
          let value = [| 1.5; -2.25; 0.125 |] in
          let a = memo_floats ~calls value () in
          let b = memo_floats ~calls value () in
          Alcotest.(check int) "computed exactly once" 1 !calls;
          Alcotest.(check bool) "miss value bit-exact" true (bits_equal value a);
          Alcotest.(check bool) "hit value bit-exact" true (bits_equal value b);
          check_counters "after miss+hit" c ~hits:1 ~misses:1 ~stores:1
            ~evictions:0))

let test_memo_off_without_cache () =
  (* No ambient cache: memo degrades to plain computation every time. *)
  let calls = ref 0 in
  let value = [| 3.5 |] in
  let a = memo_floats ~calls value () in
  let b = memo_floats ~calls value () in
  Alcotest.(check int) "computed every time" 2 !calls;
  Alcotest.(check bool) "values pass through" true
    (bits_equal value a && bits_equal value b)

let entry_file c =
  (* The entry the memo-protocol tests create, located by rebuilding
     its key exactly as [Cache.memo] does. *)
  let k = Key.create ~tier:"test" () in
  Key.str k "memo-test";
  Store.entry_path (Cache.store c) ~hex:(Key.hex k)

let test_corrupt_entry_is_eviction () =
  with_temp_cache (fun c _dir ->
      Cache.with_cache c (fun () ->
          let calls = ref 0 in
          let value = [| 7.; 8. |] in
          ignore (memo_floats ~calls value ());
          let path = entry_file c in
          Alcotest.(check bool) "entry exists on disk" true
            (Sys.file_exists path);
          (* Truncate the payload mid-float. *)
          let oc = open_out path in
          output_string oc "ffc-cache-entry v1 test 16\ngarba";
          close_out oc;
          let back = memo_floats ~calls value () in
          Alcotest.(check int) "recomputed after corruption" 2 !calls;
          Alcotest.(check bool) "recomputed value intact" true
            (bits_equal value back);
          (* The corrupt probe counts as a miss (hits + misses always
             equals lookups) plus an eviction. *)
          check_counters "after corrupt probe" c ~hits:0 ~misses:2 ~stores:2
            ~evictions:1;
          (* The republished entry is healthy again. *)
          ignore (memo_floats ~calls value ());
          Alcotest.(check int) "hit after republish" 2 !calls))

let test_garbage_entry_is_eviction () =
  with_temp_cache (fun c _dir ->
      Cache.with_cache c (fun () ->
          let calls = ref 0 in
          let value = [| 1. |] in
          ignore (memo_floats ~calls value ());
          let oc = open_out (entry_file c) in
          output_string oc "not a cache entry at all";
          close_out oc;
          ignore (memo_floats ~calls value ());
          Alcotest.(check int) "recomputed" 2 !calls;
          let k = Cache.counters c in
          Alcotest.(check int) "evicted" 1 k.Cache.evictions))

let test_schema_bump_invalidates () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      Store.clear (Store.create ~root:dir ());
      if Sys.file_exists dir then Sys.rmdir dir)
    (fun () ->
      let calls = ref 0 in
      let value = [| 4.5 |] in
      let run schema =
        let c = Cache.create ~dir ~schema () in
        Cache.with_cache c (fun () -> ignore (memo_floats ~calls value ()));
        Cache.counters c
      in
      let k1 = run "schema-A" in
      Alcotest.(check int) "cold miss" 1 k1.Cache.misses;
      let k2 = run "schema-B" in
      Alcotest.(check int) "bumped schema misses" 1 k2.Cache.misses;
      Alcotest.(check int) "bumped schema never hits" 0 k2.Cache.hits;
      let k3 = run "schema-A" in
      Alcotest.(check int) "original schema still hits" 1 k3.Cache.hits;
      Alcotest.(check int) "three computations total" 2 !calls)

let test_clear_is_scoped () =
  let dir = temp_dir () in
  let sibling = Filename.concat dir "KEEP_ME.txt" in
  let oc = open_out sibling in
  output_string oc "not cache data\n";
  close_out oc;
  let c = Cache.create ~dir () in
  Cache.with_cache c (fun () ->
      ignore (memo_floats ~calls:(ref 0) [| 1. |] ()));
  Cache.write_run_stats c;
  let versioned = Filename.concat dir Store.layout_version in
  Alcotest.(check bool) "entry tree exists" true (Sys.file_exists versioned);
  Store.clear (Cache.store c);
  Alcotest.(check bool) "entry tree removed" false (Sys.file_exists versioned);
  Alcotest.(check bool) "run stats removed" false
    (Sys.file_exists (Store.run_stats_path (Cache.store c)));
  Alcotest.(check bool) "sibling file untouched" true (Sys.file_exists sibling);
  Alcotest.(check bool) "non-empty root kept" true (Sys.file_exists dir);
  Sys.remove sibling;
  Store.clear (Cache.store c);
  Alcotest.(check bool) "empty root removed" false (Sys.file_exists dir)

(* ------------------------------------------------------------------ *)
(* Memoized kernels: cached == uncached, bit for bit, at any jobs      *)
(* ------------------------------------------------------------------ *)

let test_kernels_cached_equals_uncached () =
  let net = Topologies.single ~mu:1. ~n:3 () in
  let signal = Signal.linear_fractional in
  let fair_fresh = Steady_state.fair ~signal ~b_ss:0.5 ~net in
  let adjusters = Array.make 3 (Window.additive_tsi ~eta:0.1 ~beta:0.5) in
  let w0 = [| 0.1; 0.2; 0.3 |] in
  let run_windows () =
    Window.run Feedback.individual_fair_share ~net ~adjusters ~w0
  in
  let windows_fresh = run_windows () in
  with_temp_cache (fun c _dir ->
      Cache.with_cache c (fun () ->
          let fair_miss = Steady_state.fair ~signal ~b_ss:0.5 ~net in
          let fair_hit = Steady_state.fair ~signal ~b_ss:0.5 ~net in
          Alcotest.(check bool) "fair: cached == fresh" true
            (bits_equal fair_fresh fair_miss && bits_equal fair_fresh fair_hit);
          let w_miss = run_windows () in
          let w_hit = run_windows () in
          (match (windows_fresh, w_miss, w_hit) with
          | ( Window.Converged { windows = a; rates = ra; steps = sa },
              Window.Converged { windows = b; rates = rb; steps = sb },
              Window.Converged { windows = d; rates = rd; steps = sd } ) ->
            Alcotest.(check (list int)) "window steps equal" [ sa; sa ] [ sb; sd ];
            Alcotest.(check bool) "window vectors bit-exact" true
              (bits_equal a b && bits_equal a d);
            Alcotest.(check bool) "rate vectors bit-exact" true
              (bits_equal ra rb && bits_equal ra rd)
          | _ -> Alcotest.fail "window dynamics should converge");
          Alcotest.(check bool) "kernel lookups hit on replay" true
            ((Cache.counters c).Cache.hits >= 2)))

let test_jacobian_jobs_invariant () =
  let n = 4 in
  let net = Topologies.single ~mu:1. ~n () in
  let controller =
    Controller.homogeneous ~config:Feedback.individual_fair_share
      ~adjuster:(Rate_adjust.additive ~eta:0.1 ~beta:0.5)
      ~n
  in
  let at = Array.make n (0.5 /. float_of_int n) in
  let flat df = Ffc_numerics.Mat.(to_flat (Sparse.to_dense df)) in
  let fresh = Jacobian.of_controller_sparse ~jobs:1 controller ~net ~at in
  with_temp_cache (fun c _dir ->
      Cache.with_cache c (fun () ->
          let df1 = Jacobian.of_controller_sparse ~jobs:1 controller ~net ~at in
          let before = (Cache.counters c).Cache.hits in
          (* jobs is excluded from the key: a different jobs count must
             replay the same entry, not recompute. *)
          let df2 = Jacobian.of_controller_sparse ~jobs:2 controller ~net ~at in
          Alcotest.(check int) "jobs=2 replays the jobs=1 entry" (before + 1)
            (Cache.counters c).Cache.hits;
          Alcotest.(check bool) "jacobian bit-exact across jobs and cache" true
            (bits_equal (flat fresh) (flat df1) && bits_equal (flat fresh) (flat df2))))

let suites =
  [
    ( "cache",
      [
        Alcotest.test_case "pinned key digest" `Quick test_key_pinned;
        Alcotest.test_case "key sensitivity & injectivity" `Quick
          test_key_sensitivity;
        Alcotest.test_case "memo hit/miss protocol" `Quick test_memo_hit_miss;
        Alcotest.test_case "memo off without ambient cache" `Quick
          test_memo_off_without_cache;
        Alcotest.test_case "truncated entry evicts & recomputes" `Quick
          test_corrupt_entry_is_eviction;
        Alcotest.test_case "garbage entry evicts & recomputes" `Quick
          test_garbage_entry_is_eviction;
        Alcotest.test_case "schema bump invalidates" `Quick
          test_schema_bump_invalidates;
        Alcotest.test_case "clear touches only cache data" `Quick
          test_clear_is_scoped;
        Alcotest.test_case "kernels: cached == uncached" `Quick
          test_kernels_cached_equals_uncached;
        Alcotest.test_case "jacobian entry is jobs-invariant" `Quick
          test_jacobian_jobs_invariant;
      ] );
  ]
