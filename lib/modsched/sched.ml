type direction = Up | Down

type t = {
  g : Ts_ddg.Ddg.t;
  ii : int;
  time : int option array;
  mrt : Mrt.t;
  asap_tbl : int array;
  mutable placed_rev : int list;
  mutable n_placed : int;
  reg_active : bool array;
  mem_active : bool array;
}

let asap_table (g : Ts_ddg.Ddg.t) ~ii =
  let n = Ts_ddg.Ddg.n_nodes g in
  let asap = Array.make n 0 in
  (* Longest path from a virtual source; II >= RecII makes all cycles
     non-positive so relaxation converges within n rounds. *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed do
    changed := false;
    Array.iter
      (fun (e : Ts_ddg.Ddg.edge) ->
        let cand = asap.(e.src) + Ts_ddg.Ddg.latency g e.src - (ii * e.distance) in
        if cand > asap.(e.dst) then begin
          asap.(e.dst) <- cand;
          changed := true
        end)
      g.edges;
    incr rounds;
    if !rounds > n + 1 then
      invalid_arg
        (Printf.sprintf "Sched.create: ii=%d below RecII for loop %s" ii g.name)
  done;
  asap

let create ?asap g ~ii =
  let n = Ts_ddg.Ddg.n_nodes g in
  {
    g;
    ii;
    time = Array.make n None;
    mrt = Mrt.create g.machine ~ii;
    asap_tbl = (match asap with Some a -> a | None -> asap_table g ~ii);
    placed_rev = [];
    n_placed = 0;
    reg_active = Array.make (Array.length (Ts_ddg.Ddg.reg_edge_array g)) false;
    mem_active = Array.make (Array.length (Ts_ddg.Ddg.mem_edge_array g)) false;
  }

let ddg t = t.g
let ii t = t.ii
let time t v = t.time.(v)
let is_scheduled t v = t.time.(v) <> None
let n_scheduled t = t.n_placed
let scheduled_nodes t = List.rev t.placed_rev
let asap t v = t.asap_tbl.(v)
let reg_active_mask t = t.reg_active
let mem_active_mask t = t.mem_active

(* Latest of the bounds the scheduled predecessors put on the start of
   their consumer, [min_int] when none is scheduled. Top-level recursions
   with explicit arguments, so a window allocates only its result. *)
let rec early_bound t acc = function
  | [] -> acc
  | (e : Ts_ddg.Ddg.edge) :: rest -> (
      match t.time.(e.src) with
      | None -> early_bound t acc rest
      | Some tu ->
          let b = tu + Ts_ddg.Ddg.latency t.g e.src - (t.ii * e.distance) in
          early_bound t (if b > acc then b else acc) rest)

(* Earliest of the bounds the scheduled successors put on the start of
   their producer [v], [max_int] when none is scheduled. *)
let rec late_bound t ~lat_v acc = function
  | [] -> acc
  | (e : Ts_ddg.Ddg.edge) :: rest -> (
      match t.time.(e.dst) with
      | None -> late_bound t ~lat_v acc rest
      | Some ts ->
          let b = ts - lat_v + (t.ii * e.distance) in
          late_bound t ~lat_v (if b < acc then b else acc) rest)

let window ?(prefer = Up) t v =
  let early = early_bound t min_int t.g.preds.(v) in
  let late = late_bound t ~lat_v:(Ts_ddg.Ddg.latency t.g v) max_int t.g.succs.(v) in
  if early = min_int && late = max_int then
    (* No scheduled neighbours: start at ASAP, ascending — there is
       nothing to be close to, and an early start keeps the stage count
       down. *)
    let a = t.asap_tbl.(v) in
    Some (a, a + t.ii - 1, Up)
  else if late = max_int then Some (early, early + t.ii - 1, Up)
  else if early = min_int then Some (late - t.ii + 1, late, Down)
  else
    let hi = if late < early + t.ii - 1 then late else early + t.ii - 1 in
    if early > hi then None else Some (early, hi, prefer)

let fits t v ~cycle = Mrt.fits t.mrt (Ts_ddg.Ddg.node t.g v).op ~cycle

(* Whether an edge with both endpoints placed is an inter-iteration
   dependence of the partial schedule (paper Definition 1, kernel
   distance >= 1). Stages come from raw issue cycles; the kernel
   normalises by a multiple of II, which preserves stage differences. *)
let edge_active t (e : Ts_ddg.Ddg.edge) =
  match (t.time.(e.src), t.time.(e.dst)) with
  | Some ts, Some td ->
      e.distance
      + Ts_base.Intmath.div_floor td t.ii
      - Ts_base.Intmath.div_floor ts t.ii
      >= 1
  | _ -> false

let refresh_mask t mask arr idxs =
  for k = 0 to Array.length idxs - 1 do
    let i = idxs.(k) in
    mask.(i) <- edge_active t arr.(i)
  done

(* Re-derive the active flags of the edges incident to [v] after it was
   placed or evicted; only these can have changed. *)
let refresh_incident t v =
  refresh_mask t t.reg_active (Ts_ddg.Ddg.reg_edge_array t.g) (Ts_ddg.Ddg.incident_reg t.g v);
  refresh_mask t t.mem_active (Ts_ddg.Ddg.mem_edge_array t.g) (Ts_ddg.Ddg.incident_mem t.g v)

let place t v ~cycle =
  if is_scheduled t v then
    invalid_arg (Printf.sprintf "Sched.place: node %d already scheduled" v);
  Mrt.reserve t.mrt (Ts_ddg.Ddg.node t.g v).op ~cycle;
  t.time.(v) <- Some cycle;
  t.placed_rev <- v :: t.placed_rev;
  t.n_placed <- t.n_placed + 1;
  refresh_incident t v

let unplace t v =
  match t.time.(v) with
  | None -> invalid_arg (Printf.sprintf "Sched.unplace: node %d not scheduled" v)
  | Some cycle ->
      Mrt.release t.mrt (Ts_ddg.Ddg.node t.g v).op ~cycle;
      t.time.(v) <- None;
      t.placed_rev <- List.filter (fun w -> w <> v) t.placed_rev;
      t.n_placed <- t.n_placed - 1;
      refresh_incident t v

let is_complete t = t.n_placed = Ts_ddg.Ddg.n_nodes t.g

let times_exn t =
  Array.map
    (function
      | Some c -> c
      | None -> invalid_arg "Sched.times_exn: incomplete schedule")
    t.time
