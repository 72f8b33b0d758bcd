(* Reference TMS search: the pre-optimisation implementation, kept as a
   golden oracle for the equivalence tests. This is the list-based seed
   algorithm — inter-iteration dependence sets recomputed from scratch on
   every admissibility check, ASAP tables recomputed per attempt — with
   tracing and metrics stripped. It must NOT be "improved": its whole
   value is that it computes the answer the slow, obviously-correct way.
   The optimised [Ts_tms.Tms] search must return byte-identical kernels,
   [f_min] and attempt counts when both walk the grid from the same first
   [C_delay]. *)

module K = Ts_modsched.Kernel
module S = Ts_modsched.Sched
module Cost_model = Ts_tms.Cost_model
module Overheads = Ts_tms.Overheads

type result = {
  kernel : K.t;
  c_delay_threshold : int;
  p_max : float;
  misspec : float;
  f_min : float;
  attempts : int;
  fell_back : bool;
}

(* Incremental view of the partial schedule: rows/stages computed directly
   from raw issue cycles. *)
module Partial = struct
  let row ~ii t = Ts_base.Intmath.modulo t ii
  let stage ~ii t = Ts_base.Intmath.div_floor t ii

  let d_ker ~ii ~time_of (e : Ts_ddg.Ddg.edge) =
    match (time_of e.src, time_of e.dst) with
    | Some ts, Some td -> Some (e.distance + stage ~ii td - stage ~ii ts)
    | _ -> None

  let sync g ~ii ~c_reg_com ~time_of (e : Ts_ddg.Ddg.edge) =
    match (time_of e.src, time_of e.dst) with
    | Some ts, Some td ->
        Some (row ~ii ts - row ~ii td + Ts_ddg.Ddg.latency g e.src + c_reg_com)
    | _ -> None

  let inter_iter_deps g ~ii ~time_of kind =
    Array.to_list g.Ts_ddg.Ddg.edges
    |> List.filter_map (fun (e : Ts_ddg.Ddg.edge) ->
           if e.kind <> kind then None
           else
             match d_ker ~ii ~time_of e with
             | Some d when d >= 1 -> Some e
             | _ -> None)

  let preserved g ~ii ~c_reg_com ~time_of ~reg_deps (e : Ts_ddg.Ddg.edge) =
    match (time_of e.src, time_of e.dst, d_ker ~ii ~time_of e) with
    | Some ts, Some td, Some dk when dk >= 1 ->
        let need =
          float_of_int (row ~ii ts + Ts_ddg.Ddg.latency g e.src - row ~ii td)
          /. float_of_int dk
        in
        List.exists
          (fun (r : Ts_ddg.Ddg.edge) ->
            match (time_of r.src, sync g ~ii ~c_reg_com ~time_of r) with
            | Some tu, Some sy -> row ~ii tu < row ~ii ts && float_of_int sy >= need
            | _ -> false)
          reg_deps
    | _ -> false
end

let admissible s v ~cycle ~c_delay ~p_max ~c_reg_com =
  let g = S.ddg s in
  let ii = S.ii s in
  if not (S.fits s v ~cycle) then false
  else begin
    let time_of u = if u = v then Some cycle else S.time s u in
    let incident (e : Ts_ddg.Ddg.edge) = e.src = v || e.dst = v in
    let new_deps kind =
      List.filter incident (Partial.inter_iter_deps g ~ii ~time_of kind)
    in
    let r_v = new_deps Ts_ddg.Ddg.Reg in
    let c1 =
      List.for_all
        (fun e ->
          match Partial.sync g ~ii ~c_reg_com ~time_of e with
          | Some sy -> sy <= c_delay
          | None -> true)
        r_v
    in
    if not c1 then false
    else begin
      let m_v = new_deps Ts_ddg.Ddg.Mem in
      if m_v = [] then true
      else begin
        let reg_deps = Partial.inter_iter_deps g ~ii ~time_of Ts_ddg.Ddg.Reg in
        let mem_deps = Partial.inter_iter_deps g ~ii ~time_of Ts_ddg.Ddg.Mem in
        let m_all =
          List.filter
            (fun e -> not (Partial.preserved g ~ii ~c_reg_com ~time_of ~reg_deps e))
            mem_deps
        in
        let freq =
          Cost_model.p_m (List.map (fun (e : Ts_ddg.Ddg.edge) -> e.prob) m_all)
        in
        freq <= p_max +. 1e-12
      end
    end
  end

(* The cycles of a window in trial order. *)
let candidate_cycles (lo, hi, dir) =
  let rec up c = if c > hi then [] else c :: up (c + 1) in
  let rec down c = if c < lo then [] else c :: down (c - 1) in
  match dir with S.Up -> up lo | S.Down -> down hi

(* Returns [Ok kernel], or [Error v] naming the first node whose
   placement failed (empty window or every candidate slot rejected) —
   the oracle counterpart of [Tms.try_schedule_explained]'s blame. *)
let try_schedule g ~order ~ii ~c_delay ~p_max ~c_reg_com =
  let s = S.create g ~ii in
  let place_one (v, prefer) =
    match S.window ~prefer s v with
    | None -> false
    | Some w ->
        let rec try_cycles = function
          | [] -> false
          | c :: rest ->
              if admissible s v ~cycle:c ~c_delay ~p_max ~c_reg_com then begin
                S.place s v ~cycle:c;
                true
              end
              else try_cycles rest
        in
        try_cycles (candidate_cycles w)
  in
  let rec go = function
    | [] -> Ok (K.of_schedule s)
    | ((v, _) as entry) :: rest ->
        if place_one entry then go rest else Error v
  in
  go order

(* The Figure 3 enumeration, eagerly: hash every point of the
   [\[mii, ii_max\] × \[cd_min, cd_max\]] rectangle by
   [round (F · ncore)], sort the groups, and keep the largest [C_delay]
   per II in each, points by increasing II. The optimised search walks
   the same groups lazily ([Cost_model.f_frontier]). *)
let f_groups (p : Ts_isa.Spmt_params.t) ~mii ~ii_max ~cd_min ~cd_max =
  let tbl = Hashtbl.create 64 in
  for ii = mii to ii_max do
    for cd = cd_min to cd_max do
      let f = Cost_model.f_value p ~ii ~c_delay:cd in
      let key = int_of_float (Float.round (f *. float_of_int p.ncore)) in
      let cur = try Hashtbl.find tbl key with Not_found -> [] in
      Hashtbl.replace tbl key ((ii, cd) :: cur)
    done
  done;
  Hashtbl.fold (fun k pts acc -> (k, pts) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (key, pts) ->
         let best = Hashtbl.create 8 in
         List.iter
           (fun (ii, cd) ->
             let cur = try Hashtbl.find best ii with Not_found -> min_int in
             if cd > cur then Hashtbl.replace best ii cd)
           pts;
         let points =
           Hashtbl.fold (fun ii cd acc -> (ii, cd) :: acc) best []
           |> List.sort compare
         in
         (float_of_int key /. float_of_int p.ncore, points))

(* [cd_min] is the grid's first [C_delay]: Figure 3's [1 + c_reg_com], or
   the optimised search's floor. *)
let schedule ?(p_max = Ts_tms.Tms.default_p_max) ?max_ii ~cd_min ~params g =
  let mii = Ts_ddg.Mii.mii g in
  let ii_max =
    match max_ii with
    | Some m -> m
    | None -> min (Ts_ddg.Mii.ii_upper_bound g) (max (Ts_ddg.Mii.ldp g) mii + 8)
  in
  let max_lat =
    Array.fold_left (fun acc (nd : Ts_ddg.Ddg.node) -> max acc nd.latency) 1 g.nodes
  in
  let c_reg_com = params.Ts_isa.Spmt_params.c_reg_com in
  let cd_max = ii_max - 1 + max_lat + c_reg_com in
  let order = Ts_sms.Order.compute_with_dirs g ~ii:mii in
  let groups = f_groups params ~mii ~ii_max ~cd_min ~cd_max in
  let attempts = ref 0 in
  (* Bounded order repair (mirrors [Tms.schedule]): on failure, hoist the
     blocking node to the front of the swing order and retry, up to
     [Tms.default_place_retries] times per grid point. *)
  let try_point ~ii ~cd =
    let rec go order k =
      match try_schedule g ~order ~ii ~c_delay:cd ~p_max ~c_reg_com with
      | Ok kernel -> Some kernel
      | Error v when k < Ts_tms.Tms.default_place_retries ->
          let entry = List.find (fun (u, _) -> u = v) order in
          let rest = List.filter (fun (u, _) -> u <> v) order in
          go (entry :: rest) (k + 1)
      | Error _ -> None
    in
    go order 0
  in
  (* F-plateau walk with lowest-II tie-breaking (mirrors [Tms.schedule]):
     keep scanning groups up to [F0 + Tms.default_f_slack] past the first
     feasible objective value, skipping points at or above the incumbent
     II. *)
  let f0 = ref None in
  let best = ref None in
  let rec walk = function
    | [] -> ()
    | (f, points) :: rest ->
        let past_plateau =
          match !f0 with
          | Some f0v -> f > f0v +. Ts_tms.Tms.default_f_slack +. 1e-9
          | None -> false
        in
        if not past_plateau then begin
          List.iter
            (fun (ii, cd) ->
              let worth =
                match !best with
                | None -> true
                | Some (bii, _, _, _) -> ii < bii
              in
              if worth then begin
                incr attempts;
                match try_point ~ii ~cd with
                | Some kernel ->
                    if !f0 = None then f0 := Some f;
                    best := Some (ii, cd, f, kernel)
                | None -> ()
              end)
            points;
          walk rest
        end
  in
  walk groups;
  let result ~c_delay_threshold ~f_min ~fell_back kernel =
    { kernel; c_delay_threshold; p_max;
      misspec = Overheads.misspec_prob kernel ~c_reg_com; f_min;
      attempts = !attempts; fell_back }
  in
  match !best with
  | Some (_, cd, f, kernel) ->
      result ~c_delay_threshold:cd ~f_min:f ~fell_back:false kernel
  | None ->
      let sms = Ts_sms.Sms.schedule g in
      let kernel = sms.Ts_sms.Sms.kernel in
      let f_min =
        Cost_model.f_value params ~ii:kernel.K.ii
          ~c_delay:(max 1 (K.c_delay kernel ~c_reg_com))
      in
      result ~c_delay_threshold:cd_max ~f_min ~fell_back:true kernel

(* Every value searched on its own, in list order; the first result of
   the lowest cost estimate wins, labelled with the [P_max] it was
   searched at. *)
let schedule_sweep ?(p_maxes = [ 0.01; 0.05; 0.25 ]) ~cd_min ~params g =
  let n = 1000 in
  let results =
    List.map (fun p_max -> schedule ~p_max ~cd_min ~params g) p_maxes
  in
  let c_reg_com = params.Ts_isa.Spmt_params.c_reg_com in
  let cost (r : result) =
    Cost_model.estimate params ~ii:r.kernel.K.ii
      ~c_delay:(K.c_delay r.kernel ~c_reg_com)
      ~p_m:r.misspec ~n
  in
  match results with
  | [] -> invalid_arg "Ref_tms.schedule_sweep: empty p_max list"
  | r0 :: rest ->
      List.fold_left (fun best r -> if cost r < cost best then r else best) r0 rest
