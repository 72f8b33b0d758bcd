let cdiv a b = (a + b - 1) / b

let res_ii (g : Ddg.t) =
  let m = g.machine in
  (* Occupancy per functional-unit class. *)
  let demand = Hashtbl.create 8 in
  Array.iter
    (fun (nd : Ddg.node) ->
      let d = m.Ts_isa.Machine.describe nd.op in
      let cur = try Hashtbl.find demand d.fu with Not_found -> 0 in
      Hashtbl.replace demand d.fu (cur + d.busy))
    g.nodes;
  let fu_bound =
    Hashtbl.fold
      (fun fu busy acc ->
        let units = Ts_isa.Machine.fu_count m fu in
        if units = 0 then
          invalid_arg
            (Printf.sprintf "Mii.res_ii: machine %s has no %s unit"
               m.Ts_isa.Machine.name
               (Ts_isa.Machine.fu_to_string fu));
        max acc (cdiv busy units))
      demand 0
  in
  let width_bound = cdiv (Ddg.n_nodes g) m.Ts_isa.Machine.issue_width in
  max 1 (max fu_bound width_bound)

(* Positive-cycle test: with t(dst) >= t(src) + lat(src) - ii * distance,
   [ii] is recurrence-feasible iff the graph with those edge weights has no
   positive-weight cycle. Bellman-Ford from a virtual source connected to
   every node with weight 0 over [edges]. A simple path has fewer edges
   than the graph has nodes and no more than [edges] holds, so if any
   distance still relaxes after that many rounds, a positive cycle exists.
   (A two-node SCC settles in two rounds, not in n + 1.) *)
let feasible_on (g : Ddg.t) edges ~ii =
  let n = Ddg.n_nodes g in
  let k = min n (Array.length edges) in
  let dist = Array.make n 0 in
  let changed = ref true in
  let rounds = ref 0 in
  let ok = ref true in
  while !changed && !ok do
    changed := false;
    Array.iter
      (fun (e : Ddg.edge) ->
        let w = Ddg.latency g e.src - (ii * e.distance) in
        if dist.(e.src) + w > dist.(e.dst) then begin
          dist.(e.dst) <- dist.(e.src) + w;
          changed := true
        end)
      edges;
    incr rounds;
    if !changed && !rounds > k then ok := false
  done;
  !ok

let feasible (g : Ddg.t) ~ii = feasible_on g g.edges ~ii

let rec_ii_filtered (g : Ddg.t) ~keep =
  let edges = Array.of_list (List.filter keep (Array.to_list g.edges)) in
  let feasible ii = feasible_on g edges ~ii in
  let upper = Array.fold_left (fun acc (nd : Ddg.node) -> acc + nd.latency) 1 g.nodes in
  if feasible 0 then 0
  else begin
    (* Smallest feasible ii in [1, upper]; upper is always feasible since
       every cycle has distance >= 1. *)
    let lo = ref 1 and hi = ref upper in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if feasible mid then hi := mid else lo := mid + 1
    done;
    !lo
  end

let rec_ii g = rec_ii_filtered g ~keep:(fun _ -> true)

let rec_ii_of_nodes g nodes =
  let n = Ddg.n_nodes g in
  let in_set = Array.make n false in
  List.iter (fun v -> in_set.(v) <- true) nodes;
  rec_ii_filtered g ~keep:(fun (e : Ddg.edge) -> in_set.(e.src) && in_set.(e.dst))

let reg_rec_ii g = rec_ii_filtered g ~keep:(fun (e : Ddg.edge) -> e.kind = Ddg.Reg)

let mii g = max 1 (max (res_ii g) (rec_ii g))

let ldp (g : Ddg.t) =
  let n = Ddg.n_nodes g in
  (* Longest path by DP over a topological order of distance-0 edges. *)
  let indeg = Array.make n 0 in
  let zero_succs v =
    List.filter (fun (e : Ddg.edge) -> e.distance = 0) g.succs.(v)
  in
  for v = 0 to n - 1 do
    List.iter (fun (e : Ddg.edge) -> indeg.(e.dst) <- indeg.(e.dst) + 1) (zero_succs v)
  done;
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let best = Array.init n (fun v -> Ddg.latency g v) in
  let seen = ref 0 in
  let result = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr seen;
    result := max !result best.(v);
    List.iter
      (fun (e : Ddg.edge) ->
        let cand = best.(v) + Ddg.latency g e.dst in
        if cand > best.(e.dst) then best.(e.dst) <- cand;
        indeg.(e.dst) <- indeg.(e.dst) - 1;
        if indeg.(e.dst) = 0 then Queue.add e.dst queue)
      (zero_succs v)
  done;
  if !seen <> n then
    invalid_arg (Printf.sprintf "Mii.ldp: loop %s has a zero-distance cycle" g.name);
  !result

let ii_upper_bound (g : Ddg.t) =
  (* A serial layout issues one instruction after the previous finishes, so
     II = total latency always admits a schedule. +1 guards the empty DDG. *)
  Array.fold_left (fun acc (nd : Ddg.node) -> acc + max 1 nd.latency) 1 g.nodes
