type gateway = { gw_name : string; mu : float; latency : float }

type connection = { conn_name : string; path : int list }

type t = {
  gateways : gateway array;
  connections : connection array;
  at_gateway : int list array;  (** Γ(a), increasing connection index. *)
  local_pos : int array array;
      (** [local_pos.(i).(j)]: position of connection i within Γ(a) for
          the j-th gateway a of its path. *)
}

let validate ~gateways ~connections =
  let ng = Array.length gateways in
  Array.iter
    (fun g ->
      if not (g.mu > 0.) then
        invalid_arg (Printf.sprintf "Network: gateway %s has non-positive mu" g.gw_name);
      if g.latency < 0. then
        invalid_arg (Printf.sprintf "Network: gateway %s has negative latency" g.gw_name))
    gateways;
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun g ->
      if Hashtbl.mem seen g.gw_name then
        invalid_arg (Printf.sprintf "Network: duplicate gateway name %s" g.gw_name);
      Hashtbl.add seen g.gw_name ())
    gateways;
  let seen_c = Hashtbl.create 16 in
  Array.iter
    (fun c ->
      if Hashtbl.mem seen_c c.conn_name then
        invalid_arg (Printf.sprintf "Network: duplicate connection name %s" c.conn_name);
      Hashtbl.add seen_c c.conn_name ();
      if c.path = [] then
        invalid_arg (Printf.sprintf "Network: connection %s has an empty path" c.conn_name);
      let on_path = Hashtbl.create 8 in
      List.iter
        (fun a ->
          if a < 0 || a >= ng then
            invalid_arg
              (Printf.sprintf "Network: connection %s references unknown gateway %d"
                 c.conn_name a);
          if Hashtbl.mem on_path a then
            invalid_arg
              (Printf.sprintf "Network: connection %s repeats gateway %d" c.conn_name a);
          Hashtbl.add on_path a ())
        c.path)
    connections

let create ~gateways ~connections =
  validate ~gateways ~connections;
  let gateways = Array.copy gateways and connections = Array.copy connections in
  let ng = Array.length gateways in
  (* Connections are visited in increasing index, so a gateway's running
     count is the position of the next connection within its Γ(a), and
     prepending builds each Γ(a) in decreasing order. *)
  let fanin = Array.make ng 0 in
  let at_gateway = Array.make ng [] in
  let local_pos =
    Array.mapi
      (fun i c ->
        Array.of_list
          (List.map
             (fun a ->
               let pos = fanin.(a) in
               fanin.(a) <- pos + 1;
               at_gateway.(a) <- i :: at_gateway.(a);
               pos)
             c.path))
      connections
  in
  let at_gateway = Array.map List.rev at_gateway in
  { gateways; connections; at_gateway; local_pos }

let num_gateways t = Array.length t.gateways
let num_connections t = Array.length t.connections

let gateway t a =
  if a < 0 || a >= num_gateways t then invalid_arg "Network.gateway: index out of bounds";
  t.gateways.(a)

let connection t i =
  if i < 0 || i >= num_connections t then
    invalid_arg "Network.connection: index out of bounds";
  t.connections.(i)

let gateways_of_connection t i = (connection t i).path

let local_positions t i =
  if i < 0 || i >= num_connections t then
    invalid_arg "Network.local_positions: index out of bounds";
  t.local_pos.(i)

let connections_at_gateway t a =
  if a < 0 || a >= num_gateways t then
    invalid_arg "Network.connections_at_gateway: index out of bounds";
  t.at_gateway.(a)

let fanin t a = List.length (connections_at_gateway t a)

let gateway_index t name =
  let found = ref (-1) in
  Array.iteri (fun i g -> if g.gw_name = name then found := i) t.gateways;
  if !found < 0 then raise Not_found else !found

let connection_index t name =
  let found = ref (-1) in
  Array.iteri (fun i c -> if c.conn_name = name then found := i) t.connections;
  if !found < 0 then raise Not_found else !found

let scale_mu t c =
  if not (c > 0.) then invalid_arg "Network.scale_mu: scale must be positive";
  create
    ~gateways:(Array.map (fun g -> { g with mu = g.mu *. c }) t.gateways)
    ~connections:t.connections

let with_mu t ~gw ~mu =
  if gw < 0 || gw >= num_gateways t then
    invalid_arg "Network.with_mu: gateway index out of bounds";
  if not (mu > 0.) then invalid_arg "Network.with_mu: mu must be positive";
  create
    ~gateways:(Array.mapi (fun a g -> if a = gw then { g with mu } else g) t.gateways)
    ~connections:t.connections

let with_latencies t lats =
  if Array.length lats <> num_gateways t then
    invalid_arg "Network.with_latencies: wrong length";
  create
    ~gateways:(Array.mapi (fun a g -> { g with latency = lats.(a) }) t.gateways)
    ~connections:t.connections

let rates_at_gateway t ~rates a =
  if Array.length rates <> num_connections t then
    invalid_arg "Network.rates_at_gateway: rates length mismatch";
  let conns = connections_at_gateway t a in
  let local = Array.make (List.length conns) 0. in
  List.iteri (fun k i -> local.(k) <- rates.(i)) conns;
  local

let local_index t ~conn ~gw =
  if conn < 0 || conn >= num_connections t then raise Not_found;
  let rec find j = function
    | [] -> raise Not_found
    | a :: rest -> if a = gw then t.local_pos.(conn).(j) else find (j + 1) rest
  in
  find 0 t.connections.(conn).path

let pp ppf t =
  Format.fprintf ppf "@[<v>network: %d gateways, %d connections@," (num_gateways t)
    (num_connections t);
  Array.iteri
    (fun a g ->
      Format.fprintf ppf "  gw %s: mu=%g latency=%g fanin=%d@," g.gw_name g.mu g.latency
        (fanin t a))
    t.gateways;
  Array.iteri
    (fun _ c ->
      Format.fprintf ppf "  conn %s: path=[%a]@," c.conn_name
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
           Format.pp_print_int)
        c.path)
    t.connections;
  Format.fprintf ppf "@]"
