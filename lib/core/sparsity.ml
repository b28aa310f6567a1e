(* Route-incidence sparsity of the stability matrix DF.

   One connection's rate perturbs only the queues at the gateways on
   its route, so ∂F_i/∂r_j can be nonzero only when i and j share a
   gateway.  The pattern is symmetric — couple(i, j) iff γ(i) ∩ γ(j) ≠ ∅
   — and [support.(j)] (which always contains j itself) is therefore
   both the row support of column j and the column support of row j.

   On top of the pattern sits a Curtis-Powell-Reid probe schedule:
   columns whose supports are disjoint can be finite-differenced in one
   joint evaluation of the flow map, because no component of F reads
   more than one of the bumped coordinates — the grouped probe is
   bit-for-bit the lone-column probe.  Groups come from a greedy
   distance-2 coloring of the column-conflict graph. *)

open Ffc_topology

type t = {
  n : int;
  support : int array array;
  groups : int array array;
  nnz : int;
}

let size t = t.n
let supports t = t.support
let groups t = t.groups
let nnz t = t.nnz

let density t =
  if t.n = 0 then 0.
  else float_of_int t.nnz /. (float_of_int t.n *. float_of_int t.n)

(* Greedy smallest-free-color coloring of the conflict relation
   "supports intersect (within [only_rows], when given)".  Deterministic:
   columns are visited in the order given and each takes the least color
   not yet claimed by any of its (masked) support rows, so the schedule
   is a pure function of the pattern — the jobs-invariance of the
   grouped Jacobian rests on this.  Cost: each column scans the colors
   already claimed by its rows, O(sum_j sum_{i in support(j)} deg(i)). *)
let color ?only_rows ~support cols =
  let total_rows = Array.length support in
  let m = Array.length cols in
  if m = 0 then [||]
  else begin
    (* claimed.(i): colors already assigned to columns claiming row i.
       No color repeats within one row's list — same-colored columns
       never share a (masked) row. *)
    let claimed = Array.make total_rows [] in
    let last_seen = Array.make m (-1) in
    let color_of = Array.make m 0 in
    let ncolors = ref 0 in
    let row_ok i = match only_rows with None -> true | Some mask -> mask.(i) in
    Array.iteri
      (fun cidx j ->
        Array.iter
          (fun i ->
            if row_ok i then
              List.iter (fun c -> last_seen.(c) <- cidx) claimed.(i))
          support.(j);
        let c = ref 0 in
        while !c < !ncolors && last_seen.(!c) = cidx do
          incr c
        done;
        if !c = !ncolors then incr ncolors;
        color_of.(cidx) <- !c;
        Array.iter
          (fun i -> if row_ok i then claimed.(i) <- !c :: claimed.(i))
          support.(j))
      cols;
    let out = Array.make !ncolors [] in
    for cidx = m - 1 downto 0 do
      out.(color_of.(cidx)) <- cols.(cidx) :: out.(color_of.(cidx))
    done;
    Array.map Array.of_list out
  end

let singletons n = Array.init n (fun j -> [| j |])

let full n =
  let all = Array.init n Fun.id in
  { n; support = Array.make n all; groups = singletons n; nnz = n * n }

let build net =
  Ffc_obs.Span.with_span "sparsity.probe" @@ fun () ->
  let n = Network.num_connections net in
  let mark = Array.make (Stdlib.max 1 n) false in
  let support =
    Array.init n (fun j ->
        let acc = ref [] in
        List.iter
          (fun a ->
            List.iter
              (fun i ->
                if not mark.(i) then begin
                  mark.(i) <- true;
                  acc := i :: !acc
                end)
              (Network.connections_at_gateway net a))
          (Network.gateways_of_connection net j);
        let arr = Array.of_list !acc in
        List.iter (fun i -> mark.(i) <- false) !acc;
        Array.sort compare arr;
        arr)
  in
  let nnz = Array.fold_left (fun acc s -> acc + Array.length s) 0 support in
  let groups =
    (* Past half density the coloring degenerates towards one column per
       group anyway (and its bookkeeping towards O(N^3) on fully coupled
       topologies), so take the per-column schedule directly — which is
       exactly the dense probing order, bit for bit. *)
    if 2 * nnz > n * n then singletons n
    else color ~support (Array.init n Fun.id)
  in
  { n; support; groups; nnz }

(* The pattern is a pure function of the network, and churn workloads
   (update_flow / update_fair stepping the same net) would otherwise
   rebuild it on every call.  One slot keyed on physical identity is
   enough for those loops; a miss just recomputes.  Atomic so
   concurrent domains read a consistent pair. *)
let memo : (Network.t * t) option Atomic.t = Atomic.make None

let of_network net =
  match Atomic.get memo with
  | Some (key, p) when key == net -> p
  | _ ->
    let p = build net in
    Atomic.set memo (Some (net, p));
    p

let color_columns ?only_rows t cols = color ?only_rows ~support:t.support cols
