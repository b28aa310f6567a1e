open Ffc_topology

type t = {
  sim : Sim.t;
  pool : Packet.Pool.t;
  measure : Measure.t;
  paths : int array array;
  latency : float array;
  klass : (int -> int -> int) option;
  on_deliver : (int -> float -> unit) option;
  mutable servers : Server.t array;
  mutable sources : Source.t array;
  mutable h_forward : int;
  mutable h_deliver : int;
  mutable injections : int;
}

let inject t pkt hop =
  let i = Packet.Pool.conn t.pool pkt in
  Packet.Pool.set_hop t.pool pkt hop;
  (match t.klass with
  | Some draw -> Packet.Pool.set_klass t.pool pkt (draw i hop)
  | None -> ());
  t.injections <- t.injections + 1;
  Measure.incr t.measure ~slot:(Measure.slot t.measure ~conn:i ~hop) ~now:(Sim.now t.sim);
  Server.inject t.servers.(t.paths.(i).(hop)) pkt

let deliver t pkt =
  let i = Packet.Pool.conn t.pool pkt in
  let delay = Sim.now t.sim -. Packet.Pool.born t.pool pkt in
  Measure.record_delay t.measure ~conn:i delay;
  Measure.count_delivery t.measure ~conn:i;
  (match t.on_deliver with Some f -> f i delay | None -> ());
  Packet.Pool.free t.pool pkt

let depart t a pkt =
  let i = Packet.Pool.conn t.pool pkt and hop = Packet.Pool.hop t.pool pkt in
  Measure.decr t.measure ~slot:(Measure.slot t.measure ~conn:i ~hop) ~now:(Sim.now t.sim);
  let lat = t.latency.(a) in
  if hop < Array.length t.paths.(i) - 1 then
    Sim.schedule_code_after t.sim ~delay:lat ~handler:t.h_forward ~a:pkt ~b:(hop + 1)
  else if lat > 0. then
    Sim.schedule_code_after t.sim ~delay:lat ~handler:t.h_deliver ~a:pkt ~b:0
  else deliver t pkt

let drop t pkt =
  (* The packet never entered this gateway's system: undo the occupancy
     recorded at injection. *)
  let i = Packet.Pool.conn t.pool pkt and hop = Packet.Pool.hop t.pool pkt in
  Measure.decr t.measure ~slot:(Measure.slot t.measure ~conn:i ~hop) ~now:(Sim.now t.sim);
  Measure.count_drop t.measure ~conn:i;
  Packet.Pool.free t.pool pkt

let create ~sim ~gateways ~paths ~rates ~qdisc ?buffer_limit ~server_rng ~source_rng
    ?klass ?on_deliver () =
  let pool = Packet.Pool.create () in
  let t =
    {
      sim;
      pool;
      measure = Measure.create ~paths;
      paths;
      latency = Array.map (fun g -> g.Network.latency) gateways;
      klass;
      on_deliver;
      servers = [||];
      sources = [||];
      h_forward = -1;
      h_deliver = -1;
      injections = 0;
    }
  in
  t.h_forward <- Sim.register sim (fun pkt hop -> inject t pkt hop);
  t.h_deliver <- Sim.register sim (fun pkt _ -> deliver t pkt);
  let on_drop = drop t and emit pkt = inject t pkt 0 in
  t.servers <-
    Array.mapi
      (fun a g ->
        Server.create ~sim ~rng:(server_rng a) ~pool ~mu:g.Network.mu ~qdisc
          ?buffer_limit ~on_drop ~on_depart:(depart t a) ())
      gateways;
  t.sources <-
    Array.mapi
      (fun i rate -> Source.create ~sim ~rng:(source_rng i) ~pool ~conn:i ~rate ~emit ())
      rates;
  Array.iter Source.start t.sources;
  t

let measure t = t.measure
let set_rate t ~conn rate = Source.set_rate t.sources.(conn) rate
let emitted t ~conn = Source.emitted t.sources.(conn)
let injections t = t.injections
