open Ffc_numerics

type t = {
  name : string;
  queue_lengths : mu:float -> Vec.t -> Vec.t;
  zero_limit : mu:float -> Vec.t -> float;
      (** Sojourn of an infinitesimal connection in a zero-rate slot;
          [rates] holds at least one zero. *)
}

(* Limiting sojourn of an infinitesimal connection, by probing with a
   tiny rate.  Disciplines are symmetric in the connection order (see
   the .mli), so the limit is the same whichever zero-rate slot carries
   the probe — one probe pass serves every zero-rate connection instead
   of one re-evaluation each. *)
let probe_limit queue_lengths ~mu rates =
  let probe = 1e-9 *. mu in
  let i0 = ref (-1) in
  Array.iteri (fun i r -> if !i0 < 0 && r = 0. then i0 := i) rates;
  let rates' = Array.copy rates in
  rates'.(!i0) <- probe;
  (queue_lengths ~mu rates').(!i0) /. probe

let make ~name queue_lengths = { name; queue_lengths; zero_limit = probe_limit queue_lengths }

let fifo = make ~name:"fifo" Fifo.queue_lengths

let fair_share =
  {
    name = "fair-share";
    queue_lengths = Fair_share.queue_lengths;
    zero_limit =
      (fun ~mu rates ->
        match Fair_share.zero_rate_sojourn ~mu rates with
        | Some w -> w
        | None -> probe_limit Fair_share.queue_lengths ~mu rates);
  }

(* M/M/1-PS has the same mean per-class occupancy as M/M/1-FIFO. *)
let processor_sharing = make ~name:"processor-sharing" Fifo.queue_lengths

let name t = t.name

let queue_lengths t ~mu rates = t.queue_lengths ~mu rates

let total_queue t ~mu rates = Vec.sum (queue_lengths t ~mu rates)

let sojourns_of_queues t ~mu rates q =
  let zero_limit = lazy (t.zero_limit ~mu rates) in
  Array.mapi (fun i r -> if r > 0. then q.(i) /. r else Lazy.force zero_limit) rates

let evaluate t ~mu rates =
  let q = queue_lengths t ~mu rates in
  (q, sojourns_of_queues t ~mu rates q)

let sojourn_times t ~mu rates = sojourns_of_queues t ~mu rates (queue_lengths t ~mu rates)

let builtin = [ fifo; fair_share ]
