type profile = {
  name : string;
  machine : Ts_isa.Machine.t;
  n_inst : int;
  mem_frac : float;
  fp_frac : float;
  fmul_frac : float;
  fanin : float;
  self_loop_rate : float;
  target_rec_ii : int option;
  n_extra_sccs : int;
  mem_dep_rate : float;
  mem_prob : float * float;
  mem_rec : bool;
  ldp_target : int option;
}

let default_profile =
  {
    name = "loop";
    machine = Ts_isa.Machine.spmt_core;
    n_inst = 24;
    mem_frac = 0.3;
    fp_frac = 0.6;
    fmul_frac = 0.28;
    fanin = 1.4;
    self_loop_rate = 0.12;
    target_rec_ii = None;
    n_extra_sccs = 0;
    mem_dep_rate = 0.5;
    mem_prob = (0.0001, 0.0006);
    mem_rec = false;
    ldp_target = None;
  }

(* Forward reachability over all edges recorded so far. *)
let reaches edges n src dst =
  let adj = Array.make n [] in
  List.iter (fun (u, v, _, _) -> adj.(u) <- v :: adj.(u)) edges;
  let seen = Array.make n false in
  let rec go u =
    if u = dst then true
    else if seen.(u) then false
    else begin
      seen.(u) <- true;
      List.exists go adj.(u)
    end
  in
  go src

let generate rng p =
  let open Ts_isa.Opcode in
  let n = max 4 p.n_inst in
  (* --- opcode layout: loads early, stores late, compute in between --- *)
  let n_mem = max 2 (int_of_float (Float.round (p.mem_frac *. float_of_int n))) in
  let n_store = max 1 (n_mem / 3) in
  let n_load = max 1 (n_mem - n_store) in
  let n_rest = n - n_load - n_store in
  let n_fp = int_of_float (Float.round (p.fp_frac *. float_of_int n_rest)) in
  let ops = Array.make n Ialu in
  (* loads into the first 60%, stores into the last 30% *)
  let place count op lo hi =
    let placed = ref 0 in
    let guard = ref 0 in
    while !placed < count && !guard < 10_000 do
      incr guard;
      let i = Ts_base.Rng.int_in rng lo (max lo hi) in
      if ops.(i) = Ialu then begin
        ops.(i) <- op;
        incr placed
      end
    done;
    (* fall back to a linear sweep if the random probes kept colliding *)
    let i = ref 0 in
    while !placed < count && !i < n do
      if ops.(!i) = Ialu then begin
        ops.(!i) <- op;
        incr placed
      end;
      incr i
    done
  in
  place n_load Load 0 (max 0 ((n * 3 / 5) - 1));
  place n_store Store (n * 7 / 10) (n - 1);
  let fp_placed = ref 0 in
  for i = 0 to n - 1 do
    if ops.(i) = Ialu && !fp_placed < n_fp then begin
      if Ts_base.Rng.bool rng (p.fp_frac *. 1.2) then begin
        ops.(i) <- (if Ts_base.Rng.bool rng p.fmul_frac then Fmul else Fadd);
        incr fp_placed
      end
    end
  done;
  (* occasional integer multiply in the remaining ALU ops *)
  for i = 0 to n - 1 do
    if ops.(i) = Ialu && Ts_base.Rng.bool rng 0.05 then ops.(i) <- Imul
  done;
  let lat op = Ts_isa.Machine.latency p.machine op in
  let producer_ok i = ops.(i) <> Store in
  (* --- register flow edges (distance 0, forward only) --- *)
  let edges = ref [] in
  (* (src, dst, dist, kind) with kind: 0 = reg, 1 = mem; probs tracked apart *)
  let edge_set = Hashtbl.create 64 in
  (* Incremental latency depth (edges are added in roughly ascending id
     order, so this tracks the true longest path closely); used to cap the
     LDP at [ldp_target]. *)
  let depth = Array.init n (fun i -> lat ops.(i)) in
  let ldp_cap = match p.ldp_target with Some t -> t | None -> max_int in
  let add_edge src dst dist kind =
    let key = (src, dst, dist, kind) in
    if not (Hashtbl.mem edge_set key) then begin
      Hashtbl.replace edge_set key ();
      if dist = 0 && kind = 0 then
        depth.(dst) <- max depth.(dst) (depth.(src) + lat ops.(dst));
      edges := (src, dst, dist, kind) :: !edges
    end
  in
  (* --- the main recurrence circuit, if requested (built first so the
     depth cap on random edges accounts for it) --- *)
  let in_circuit = Array.make n false in
  (match p.target_rec_ii with
  | None -> ()
  | Some target ->
      let start = Ts_base.Rng.int rng (max 1 (n / 3)) in
      let members = ref [] in
      let acc = ref 0 in
      let i = ref start in
      (* keep loads off the circuit: a recurrence through memory would see
         its latency inflated by cache misses at run time, whereas real
         DOACROSS recurrences are arithmetic chains *)
      while !acc < target && !i < n do
        if producer_ok !i && ops.(!i) <> Load then begin
          members := !i :: !members;
          acc := !acc + lat ops.(!i)
        end;
        incr i
      done;
      (match List.rev !members with
      | [] | [ _ ] -> ()
      | first :: _ as ms ->
          List.iter (fun v -> in_circuit.(v) <- true) ms;
          let rec chain = function
            | a :: (b :: _ as rest) ->
                add_edge a b 0 0;
                chain rest
            | [ last ] -> add_edge last first 1 0
            | [] -> ()
          in
          chain ms));
  (* --- random register flow edges (distance 0, forward only) --- *)
  let pick_producer v =
    (* Half local (recently computed values), half uniform (loop-invariant
       style reuse): the uniform component keeps dependence chains shallow,
       as in real loop bodies where most instructions hang directly off a
       load or an induction variable. The depth guard enforces the LDP
       cap. *)
    let rec try_pick attempts =
      if attempts = 0 then None
      else begin
        let u =
          if Ts_base.Rng.bool rng 0.5 then v - 1 - Ts_base.Rng.int rng (max 1 (min v 8))
          else Ts_base.Rng.int rng v
        in
        if u >= 0 && producer_ok u && depth.(u) + lat ops.(v) <= ldp_cap then Some u
        else try_pick (attempts - 1)
      end
    in
    try_pick 8
  in
  for v = 1 to n - 1 do
    let wanted =
      1 + (if Ts_base.Rng.bool rng (Float.max 0.0 (p.fanin -. 1.0)) then 1 else 0)
    in
    (* Circuit members take no random inputs: any extra path entering the
       circuit would combine with its back edge into a longer recurrence
       than the one we calibrated (and drag loads onto the critical
       cycle). *)
    for _ = 1 to wanted do
      match pick_producer v with
      | Some u -> if not in_circuit.(v) then add_edge u v 0 0
      | None -> ()
    done
  done;
  (* --- accumulators --- *)
  for v = 0 to n - 1 do
    if
      producer_ok v && ops.(v) <> Load && (not in_circuit.(v))
      && Ts_base.Rng.bool rng p.self_loop_rate
    then add_edge v v 1 0
  done;
  (* --- extra small recurrences: accumulator self-loops on distinct nodes --- *)
  let extra = ref p.n_extra_sccs in
  let guard = ref 0 in
  while !extra > 0 && !guard < 1000 do
    incr guard;
    let v = Ts_base.Rng.int rng n in
    if producer_ok v && ops.(v) <> Load && not in_circuit.(v)
       && not (Hashtbl.mem edge_set (v, v, 1, 0))
    then begin
      add_edge v v 1 0;
      decr extra
    end
  done;
  (* --- top up the longest dependence path to its target --- *)
  (match p.ldp_target with
  | None -> ()
  | Some target ->
      let deepest () =
        (* deepest register-producing node (stores cannot start a chain) *)
        let best = ref (-1) in
        for i = 0 to n - 1 do
          if producer_ok i && (!best = -1 || depth.(i) > depth.(!best)) then best := i
        done;
        !best
      in
      let guard = ref 0 in
      let continue_ = ref true in
      while !continue_ && !guard < 4 * n do
        incr guard;
        let d = deepest () in
        if d = -1 || depth.(d) >= target then continue_ := false
        else begin
          (* extend from the deepest node to a later, shallow, off-circuit
             node *)
          let cand = ref (-1) in
          for v = d + 1 to n - 1 do
            if !cand = -1 && (not in_circuit.(v))
               && depth.(d) + lat ops.(v) <= target + 4
            then cand := v
          done;
          if !cand = -1 then continue_ := false else add_edge d !cand 0 0
        end
      done);
  (* --- cross-iteration memory dependences --- *)
  let loads = List.filter (fun i -> ops.(i) = Load) (List.init n Fun.id) in
  let stores = List.filter (fun i -> ops.(i) = Store) (List.init n Fun.id) in
  let loads_arr = Array.of_list loads in
  let probs = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let count =
        (if Ts_base.Rng.bool rng (Float.min 1.0 p.mem_dep_rate) then 1 else 0)
        + (if Ts_base.Rng.bool rng (Float.max 0.0 (p.mem_dep_rate -. 1.0)) then 1 else 0)
      in
      for _ = 1 to count do
        if Array.length loads_arr > 0 then begin
          let l = Ts_base.Rng.pick rng loads_arr in
          let dist = if Ts_base.Rng.bool rng 0.8 then 1 else 2 in
          let lo, hi = p.mem_prob in
          let prob = lo +. Ts_base.Rng.float rng (hi -. lo) in
          let creates_cycle = reaches !edges n l s in
          if (p.mem_rec || not creates_cycle)
             && not (Hashtbl.mem edge_set (s, l, dist, 1))
          then begin
            add_edge s l dist 1;
            Hashtbl.replace probs (s, l, dist) prob
          end
        end
      done)
    stores;
  (* --- materialise --- *)
  let b = Ts_ddg.Ddg.Builder.create ~name:p.name p.machine in
  Array.iter (fun op -> ignore (Ts_ddg.Ddg.Builder.add b op)) ops;
  List.iter
    (fun (src, dst, dist, kind) ->
      if kind = 0 then Ts_ddg.Ddg.Builder.dep b ~dist src dst
      else
        let prob = try Hashtbl.find probs (src, dst, dist) with Not_found -> 0.01 in
        Ts_ddg.Ddg.Builder.mem_dep b ~dist ~prob src dst)
    (List.rev !edges);
  Ts_ddg.Ddg.Builder.build b

(* The paper's loops are exactly those GCC's modulo scheduler accepts;
   mirror that by redrawing the rare body SMS cannot schedule (diamond
   patterns can make the swing ordering paint itself into a corner at
   every II, in which case GCC simply skips the loop). *)
let schedulable ?(probe = fun g -> Ts_sms.Sms.schedule g) ~key draw =
  let rec go attempt =
    let g = draw (Ts_base.Rng.of_string (key attempt)) in
    if attempt >= 6 then g
    else
      match probe g with
      | (_ : Ts_sms.Sms.result) -> g
      | exception Ts_sms.Sms.No_schedule _ -> go (attempt + 1)
  in
  go 0
