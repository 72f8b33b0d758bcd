type t = {
  g : Ts_ddg.Ddg.t;
  root : Ts_base.Rng.t; (* never advanced; only derived from *)
  streams : int array;
      (* flat [3 * node]: base, stride, working set - 1; a non-memory
         node's working-set slot is -1 *)
  incoming_mem : (int * Ts_ddg.Ddg.edge) list array; (* per load: (edge index, edge) *)
}

(* Each memory instruction walks its own array region. Working sets of a
   few KB per stream give a realistic mix of L1 hits and streaming misses
   (a new 32-byte line every few iterations). *)
let create ?seed (g : Ts_ddg.Ddg.t) =
  let seed = match seed with Some s -> s | None -> g.name in
  let root = Ts_base.Rng.of_string seed in
  let region = 1 lsl 20 in
  let streams = Array.make (3 * Ts_ddg.Ddg.n_nodes g) (-1) in
  Array.iter
    (fun (nd : Ts_ddg.Ddg.node) ->
      if Ts_isa.Opcode.is_mem nd.op then begin
        let rng = Ts_base.Rng.derive2 root nd.id (-1) in
        let stride = Ts_base.Rng.pick rng [| 4; 8; 8; 8; 16 |] in
        (* 1-4 KB per stream: after the first pass over the array the
           stream is L1/L2 resident, so cache behaviour is visible but
           does not drown the scheduling effects under study (the
           SPECfp2000 loop kernels the paper measures are similarly
           cache-friendly on their simulator's 16KB/1MB hierarchy). A
           power of two, so that the simulator can wrap it by mask. *)
        let working_set = 1 lsl Ts_base.Rng.int_in rng 10 11 in
        (* Stagger the region bases: power-of-two-aligned arrays would
           all map onto the same cache sets and thrash. *)
        let colour = nd.id * 37 * 64 in
        streams.(3 * nd.id) <- ((nd.id + 1) * region) + colour;
        streams.((3 * nd.id) + 1) <- stride;
        streams.((3 * nd.id) + 2) <- working_set - 1
      end)
    g.nodes;
  let incoming_mem = Array.make (Ts_ddg.Ddg.n_nodes g) [] in
  Array.iteri
    (fun idx (e : Ts_ddg.Ddg.edge) ->
      if e.kind = Ts_ddg.Ddg.Mem then
        incoming_mem.(e.dst) <- incoming_mem.(e.dst) @ [ (idx, e) ])
    g.edges;
  { g; root; streams; incoming_mem }

let not_mem node =
  invalid_arg
    (Printf.sprintf "Address_plan.addr: node %d is not a memory instruction" node)

let own_addr t node iter =
  let b = 3 * node in
  if t.streams.(b + 2) < 0 then not_mem node;
  t.streams.(b) + (t.streams.(b + 1) * iter mod (t.streams.(b + 2) + 1))

let streams t = t.streams
let root t = t.root

let realised t ~edge_index ~iter =
  let e = t.g.edges.(edge_index) in
  if e.kind <> Ts_ddg.Ddg.Mem then
    invalid_arg "Address_plan.realised: not a memory dependence edge";
  if iter < e.distance then false
  else if e.prob >= 1.0 then true
  else Ts_base.Rng.coin2 t.root edge_index iter e.prob

(* The first realised incoming edge wins: its producer's location. *)
let rec redirected t ~node ~iter = function
  | [] -> own_addr t node iter
  | (idx, (e : Ts_ddg.Ddg.edge)) :: rest ->
      if realised t ~edge_index:idx ~iter then own_addr t e.src (iter - e.distance)
      else redirected t ~node ~iter rest

let addr t ~node ~iter =
  if t.streams.((3 * node) + 2) < 0 then not_mem node;
  (* A load whose incoming memory dependence fires this iteration reads
     the producer store's location. *)
  redirected t ~node ~iter t.incoming_mem.(node)
