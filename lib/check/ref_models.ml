module Cache = struct
  type slot = { mutable tag : int; mutable last_use : int }

  type t = {
    n_sets : int;
    line : int;
    sets : slot array array;
    mutable clock : int; (* global recency counter; larger = more recent *)
    mutable hits : int;
    mutable misses : int;
  }

  let create ~size ~assoc ~line =
    let n_sets = size / (assoc * line) in
    {
      n_sets;
      line;
      (* Way 0 starts most recent, matching the production cache's initial
         age permutation, so cold evictions fill ways back-to-front in the
         same order. *)
      sets =
        Array.init n_sets (fun _ ->
            Array.init assoc (fun w -> { tag = -1; last_use = -w }));
      clock = 0;
      hits = 0;
      misses = 0;
    }

  let locate t addr =
    let block = addr / t.line in
    (block, t.sets.(block mod t.n_sets))

  let find set block = Array.find_opt (fun s -> s.tag = block) set

  let touch t slot =
    t.clock <- t.clock + 1;
    slot.last_use <- t.clock

  let victim set =
    Array.fold_left (fun best s -> if s.last_use < best.last_use then s else best)
      set.(0) set

  let access t addr =
    let block, set = locate t addr in
    match find set block with
    | Some s ->
        t.hits <- t.hits + 1;
        touch t s;
        true
    | None ->
        t.misses <- t.misses + 1;
        let s = victim set in
        s.tag <- block;
        touch t s;
        false

  let probe t addr =
    let block, set = locate t addr in
    find set block <> None

  let invalidate t addr =
    let block, set = locate t addr in
    match find set block with Some s -> s.tag <- -1 | None -> ()

  let fill t addr =
    let block, set = locate t addr in
    match find set block with
    | Some s -> touch t s
    | None ->
        let s = victim set in
        s.tag <- block;
        touch t s

  let stats t = (t.hits, t.misses)

  let reset_stats t =
    t.hits <- 0;
    t.misses <- 0
end

module Mdt = struct
  type entry = { thread : int; addr : int; finish : int }

  type t = { horizon : int; mutable entries : entry list; mutable peak : int }

  let create ~horizon = { horizon; entries = []; peak = 0 }

  let record_store t ~thread ~addr ~finish =
    t.entries <-
      { thread; addr; finish }
      :: List.filter
           (fun e -> e.addr <> addr || e.thread > thread - t.horizon)
           t.entries;
    let live = List.length t.entries in
    if live > t.peak then t.peak <- live

  let conflicting_store t ~thread ~addr ~issue =
    List.fold_left
      (fun acc e ->
        if
          e.addr = addr && e.thread < thread
          && e.thread > thread - t.horizon
          && e.finish > issue
        then Some (match acc with None -> e.finish | Some f -> max f e.finish)
        else acc)
      None t.entries

  let retire t ~upto =
    t.entries <- List.filter (fun e -> e.thread >= upto) t.entries

  let live_entries t = List.length t.entries
  let peak_entries t = t.peak
end

module Mrt = struct
  type t = {
    machine : Ts_isa.Machine.t;
    ii : int;
    mutable rs : (Ts_isa.Opcode.t * int) list; (* (op, modulo row) *)
  }

  let create machine ~ii =
    if ii <= 0 then invalid_arg "Ref_models.Mrt.create: ii must be positive";
    { machine; ii; rs = [] }

  let row t cycle = Ts_base.Intmath.modulo cycle t.ii

  (* Per-cell occupancy of one FU across all reservations (plus an
     optional extra op at [extra_row]), unrolling busy cycles with
     wrap-around. *)
  let fu_demand t fu ?extra ~extra_row () =
    let demand = Array.make t.ii 0 in
    let count op r0 =
      let d = t.machine.Ts_isa.Machine.describe op in
      if d.fu = fu then
        for k = 0 to d.busy - 1 do
          let c = (r0 + k) mod t.ii in
          demand.(c) <- demand.(c) + 1
        done
    in
    List.iter (fun (op, r) -> count op r) t.rs;
    (match extra with Some op -> count op extra_row | None -> ());
    demand

  let fits t op ~cycle =
    let r0 = row t cycle in
    let issue_here =
      List.fold_left (fun acc (_, r) -> if r = r0 then acc + 1 else acc) 0 t.rs
    in
    if issue_here >= t.machine.Ts_isa.Machine.issue_width then false
    else
      let fu = (t.machine.Ts_isa.Machine.describe op).fu in
      let units = Ts_isa.Machine.fu_count t.machine fu in
      let demand = fu_demand t fu ~extra:op ~extra_row:r0 () in
      Array.for_all (fun d -> d <= units) demand

  let reserve t op ~cycle = t.rs <- (op, row t cycle) :: t.rs

  let release t op ~cycle =
    let r0 = row t cycle in
    let rec drop = function
      | [] -> invalid_arg "Ref_models.Mrt.release: not reserved"
      | (o, r) :: rest when o = op && r = r0 -> rest
      | x :: rest -> x :: drop rest
    in
    t.rs <- drop t.rs
end
