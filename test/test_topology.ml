open Ffc_numerics
open Ffc_topology
open Test_util

let gw name mu latency = { Network.gw_name = name; mu; latency }
let conn name path = { Network.conn_name = name; path }

let two_hop () =
  Network.create
    ~gateways:[| gw "g0" 1. 0.1; gw "g1" 2. 0.2 |]
    ~connections:[| conn "long" [ 0; 1 ]; conn "short" [ 1 ] |]

let test_create_accessors () =
  let net = two_hop () in
  Alcotest.(check int) "gateways" 2 (Network.num_gateways net);
  Alcotest.(check int) "connections" 2 (Network.num_connections net);
  check_float "mu" 2. (Network.gateway net 1).Network.mu;
  Alcotest.(check (list int)) "gamma(long)" [ 0; 1 ] (Network.gateways_of_connection net 0);
  Alcotest.(check (list int)) "Gamma(g1)" [ 0; 1 ] (Network.connections_at_gateway net 1);
  Alcotest.(check (list int)) "Gamma(g0)" [ 0 ] (Network.connections_at_gateway net 0);
  Alcotest.(check int) "fanin g1" 2 (Network.fanin net 1)

let test_name_lookup () =
  let net = two_hop () in
  Alcotest.(check int) "gateway by name" 1 (Network.gateway_index net "g1");
  Alcotest.(check int) "connection by name" 1 (Network.connection_index net "short");
  Alcotest.check_raises "unknown gateway" Not_found (fun () ->
      ignore (Network.gateway_index net "nope"))

let test_validation () =
  let bad_path () =
    Network.create ~gateways:[| gw "g" 1. 0. |] ~connections:[| conn "c" [ 5 ] |]
  in
  check_true "unknown gateway rejected"
    (try
       ignore (bad_path ());
       false
     with Invalid_argument _ -> true);
  let empty_path () =
    Network.create ~gateways:[| gw "g" 1. 0. |] ~connections:[| conn "c" [] |]
  in
  check_true "empty path rejected"
    (try
       ignore (empty_path ());
       false
     with Invalid_argument _ -> true);
  let repeat_gateway () =
    Network.create ~gateways:[| gw "g" 1. 0. |] ~connections:[| conn "c" [ 0; 0 ] |]
  in
  check_true "repeated gateway rejected"
    (try
       ignore (repeat_gateway ());
       false
     with Invalid_argument _ -> true);
  let bad_mu () =
    Network.create ~gateways:[| gw "g" 0. 0. |] ~connections:[| conn "c" [ 0 ] |]
  in
  check_true "non-positive mu rejected"
    (try
       ignore (bad_mu ());
       false
     with Invalid_argument _ -> true);
  let dup_names () =
    Network.create
      ~gateways:[| gw "g" 1. 0.; gw "g" 1. 0. |]
      ~connections:[| conn "c" [ 0 ] |]
  in
  check_true "duplicate names rejected"
    (try
       ignore (dup_names ());
       false
     with Invalid_argument _ -> true)

let test_scale_mu () =
  let net = two_hop () in
  let scaled = Network.scale_mu net 3. in
  check_float "mu scaled" 3. (Network.gateway scaled 0).Network.mu;
  check_float "latency unchanged" 0.1 (Network.gateway scaled 0).Network.latency

let test_with_latencies () =
  let net = two_hop () in
  let changed = Network.with_latencies net [| 5.; 6. |] in
  check_float "latency replaced" 6. (Network.gateway changed 1).Network.latency;
  check_float "mu unchanged" 2. (Network.gateway changed 1).Network.mu

let test_rates_at_gateway () =
  let net = two_hop () in
  let rates = [| 0.3; 0.7 |] in
  check_vec "g1 sees both" [| 0.3; 0.7 |] (Network.rates_at_gateway net ~rates 1);
  check_vec "g0 sees only long" [| 0.3 |] (Network.rates_at_gateway net ~rates 0)

let test_local_index () =
  let net = two_hop () in
  Alcotest.(check int) "long at g1" 0 (Network.local_index net ~conn:0 ~gw:1);
  Alcotest.(check int) "short at g1" 1 (Network.local_index net ~conn:1 ~gw:1);
  Alcotest.check_raises "not on path" Not_found (fun () ->
      ignore (Network.local_index net ~conn:1 ~gw:0))

let test_local_positions () =
  (* The per-connection position arrays agree with the path and with
     each gateway's connection list, on canonical and random shapes. *)
  let rng = Rng.create 31 in
  List.iter
    (fun net ->
      for i = 0 to Network.num_connections net - 1 do
        let path = Network.gateways_of_connection net i in
        let pos = Network.local_positions net i in
        Alcotest.(check int) "one position per hop" (List.length path) (Array.length pos);
        List.iteri
          (fun j a ->
            Alcotest.(check int) "slot holds the connection" i
              (List.nth (Network.connections_at_gateway net a) pos.(j));
            Alcotest.(check int) "local_index agrees" pos.(j)
              (Network.local_index net ~conn:i ~gw:a))
          path
      done)
    [
      two_hop ();
      Topologies.parking_lot ~hops:4 ();
      Topologies.multi_parking_lot ~lots:2 ~hops:3 ();
      Topologies.random ~rng ~gateways:6 ~connections:12 ~max_path:4 ();
    ];
  Alcotest.check_raises "unknown connection" Not_found (fun () ->
      ignore (Network.local_index (two_hop ()) ~conn:7 ~gw:0))

let test_single () =
  let net = Topologies.single ~n:4 () in
  Alcotest.(check int) "one gateway" 1 (Network.num_gateways net);
  Alcotest.(check int) "four connections" 4 (Network.num_connections net);
  Alcotest.(check int) "fanin 4" 4 (Network.fanin net 0)

let test_parking_lot () =
  let net = Topologies.parking_lot ~hops:3 () in
  Alcotest.(check int) "gateways" 3 (Network.num_gateways net);
  Alcotest.(check int) "connections" 4 (Network.num_connections net);
  Alcotest.(check (list int)) "long path" [ 0; 1; 2 ] (Network.gateways_of_connection net 0);
  (* Each gateway carries the long connection plus one cross. *)
  for a = 0 to 2 do
    Alcotest.(check int) (Printf.sprintf "fanin gw%d" a) 2 (Network.fanin net a)
  done

let test_chain () =
  let net = Topologies.chain ~hops:2 ~conns:3 () in
  Alcotest.(check int) "connections" 3 (Network.num_connections net);
  for i = 0 to 2 do
    Alcotest.(check (list int))
      (Printf.sprintf "conn%d path" i)
      [ 0; 1 ]
      (Network.gateways_of_connection net i)
  done

let test_star () =
  let net = Topologies.star ~legs:3 () in
  Alcotest.(check int) "gateways" 4 (Network.num_gateways net);
  Alcotest.(check int) "hub fanin" 3 (Network.fanin net 3);
  Alcotest.(check int) "leg fanin" 1 (Network.fanin net 0)

let test_dumbbell () =
  let net = Topologies.dumbbell ~left:2 ~right:3 () in
  Alcotest.(check int) "bottleneck fanin" 5 (Network.fanin net 0);
  check_float "access is fat" 10. (Network.gateway net 1).Network.mu

let test_random_valid () =
  let rng = Rng.create 123 in
  for trial = 0 to 9 do
    let net =
      Topologies.random ~rng ~gateways:5 ~connections:6 ~max_path:3 ()
    in
    Alcotest.(check int)
      (Printf.sprintf "trial %d connections" trial)
      6 (Network.num_connections net);
    (* Every gateway must carry traffic. *)
    for a = 0 to Network.num_gateways net - 1 do
      check_true
        (Printf.sprintf "trial %d gw %d used" trial a)
        (Network.fanin net a > 0)
    done
  done

let test_random_deterministic () =
  let build seed =
    let rng = Rng.create seed in
    Dsl.to_string (Topologies.random ~rng ~gateways:4 ~connections:5 ~max_path:2 ())
  in
  Alcotest.(check string) "same seed, same topology" (build 7) (build 7);
  check_true "different seeds usually differ" (build 7 <> build 8)

let test_dsl_roundtrip () =
  let net = Topologies.parking_lot ~hops:3 ~mu:1.5 ~latency:0.25 () in
  let text = Dsl.to_string net in
  let net' = Dsl.parse_exn text in
  Alcotest.(check string) "roundtrip identical" text (Dsl.to_string net')

let test_dsl_parse_example () =
  let text =
    "# two-hop example\n\
     gateway g0 mu=1.0 latency=0.1\n\
     gateway g1 mu=2.0\n\
     \n\
     connection long path=g0,g1\n\
     connection short path=g1\n"
  in
  let net = Dsl.parse_exn text in
  Alcotest.(check int) "two gateways" 2 (Network.num_gateways net);
  check_float "latency default 0" 0. (Network.gateway net 1).Network.latency;
  Alcotest.(check (list int)) "long path" [ 0; 1 ] (Network.gateways_of_connection net 0)

let expect_error text fragment =
  match Dsl.parse text with
  | Ok _ -> Alcotest.failf "expected parse error mentioning %S" fragment
  | Error { message; _ } ->
    let contains s sub =
      let n = String.length sub in
      let found = ref false in
      for i = 0 to String.length s - n do
        if String.sub s i n = sub then found := true
      done;
      !found
    in
    if not (contains message fragment) then
      Alcotest.failf "error %S does not mention %S" message fragment

let test_dsl_errors () =
  expect_error "gateway g0\n" "mu";
  expect_error "gateway g0 mu=abc\n" "invalid mu";
  expect_error "gateway g0 mu=1.0\nconnection c path=zz\n" "unknown gateway";
  expect_error "frobnicate x\n" "unknown declaration";
  expect_error "gateway g0 mu=1.0\nconnection c\n" "path";
  expect_error "connection c path=g0\n" "unknown gateway";
  expect_error "" "no gateways"

let test_dsl_error_line_numbers () =
  match Dsl.parse "gateway g0 mu=1.0\n# fine\nbogus\n" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error { line; _ } -> Alcotest.(check int) "error on line 3" 3 line

let prop_random_topology_valid =
  prop "random topologies validate and expose consistent incidence" ~count:50
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let net = Topologies.random ~rng ~gateways:4 ~connections:5 ~max_path:3 () in
      (* Incidence consistency: i in Gamma(a) iff a in gamma(i). *)
      let ok = ref true in
      for i = 0 to Network.num_connections net - 1 do
        List.iter
          (fun a ->
            if not (List.mem i (Network.connections_at_gateway net a)) then ok := false)
          (Network.gateways_of_connection net i)
      done;
      for a = 0 to Network.num_gateways net - 1 do
        List.iter
          (fun i ->
            if not (List.mem a (Network.gateways_of_connection net i)) then ok := false)
          (Network.connections_at_gateway net a)
      done;
      !ok)

let prop_dsl_roundtrip =
  prop "DSL roundtrips random topologies" ~count:50
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let net = Topologies.random ~rng ~gateways:3 ~connections:4 ~max_path:2 () in
      let text = Dsl.to_string net in
      match Dsl.parse text with
      | Error _ -> false
      | Ok net' -> Dsl.to_string net' = text)

let suites =
  [
    ( "topology.network",
      [
        case "create and accessors" test_create_accessors;
        case "name lookup" test_name_lookup;
        case "validation" test_validation;
        case "scale_mu" test_scale_mu;
        case "with_latencies" test_with_latencies;
        case "rates at gateway" test_rates_at_gateway;
        case "local index" test_local_index;
        case "local positions" test_local_positions;
      ] );
    ( "topology.builders",
      [
        case "single" test_single;
        case "parking lot" test_parking_lot;
        case "chain" test_chain;
        case "star" test_star;
        case "dumbbell" test_dumbbell;
        case "random validity" test_random_valid;
        case "random determinism" test_random_deterministic;
        prop_random_topology_valid;
      ] );
    ( "topology.dsl",
      [
        case "roundtrip" test_dsl_roundtrip;
        case "parse example" test_dsl_parse_example;
        case "parse errors" test_dsl_errors;
        case "error line numbers" test_dsl_error_line_numbers;
        prop_dsl_roundtrip;
      ] );
  ]
