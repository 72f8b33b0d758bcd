module S = Ts_modsched.Sched

type result = {
  kernel : Ts_modsched.Kernel.t;
  mii : int;
  attempts : int;
  placements : int;
}

exception No_schedule of string

(* Height-based priority: longest latency path to any sink (over
   intra-iteration edges), highest first, as in Rau's HRMS ordering. *)
let priority_order g ~ii =
  let p = Order.priorities g ~ii in
  List.sort
    (fun a b ->
      if p.height.(a) <> p.height.(b) then compare p.height.(b) p.height.(a)
      else compare a b)
    (List.init (Ts_ddg.Ddg.n_nodes g) Fun.id)

let try_ii_counting ?(budget_ratio = 6) ?(admissible = fun _ _ ~cycle:_ -> true)
    ?asap ?prio (g : Ts_ddg.Ddg.t) ~ii =
  let n = Ts_ddg.Ddg.n_nodes g in
  let s = S.create ?asap g ~ii in
  let budget = ref (budget_ratio * n) in
  let placements = ref 0 in
  let prev_time = Array.make n min_int in
  let prio = match prio with Some p -> p | None -> priority_order g ~ii in
  let pick_unscheduled () = List.find_opt (fun v -> not (S.is_scheduled s v)) prio in
  let lat u = Ts_ddg.Ddg.latency g u in
  (* earliest start w.r.t. currently scheduled predecessors *)
  let early v =
    List.fold_left
      (fun acc (e : Ts_ddg.Ddg.edge) ->
        match S.time s e.src with
        | None -> acc
        | Some tu -> max acc (tu + lat e.src - (ii * e.distance)))
      0 g.preds.(v)
  in
  (* after placing v, evict scheduled successors whose dependence broke *)
  let evict_broken_succs v c =
    List.iter
      (fun (e : Ts_ddg.Ddg.edge) ->
        if e.src = v && e.dst <> v then
          match S.time s e.dst with
          | Some tw when tw < c + lat v - (ii * e.distance) -> S.unplace s e.dst
          | _ -> ())
      g.succs.(v)
  in
  (* clear resource conflicts at [c] until v fits there (bounded) *)
  let force_fit v c =
    let guard = ref 0 in
    while (not (S.fits s v ~cycle:c)) && !guard < n do
      incr guard;
      (* evict the scheduled node occupying the same modulo cycle that was
         placed least recently (round-robin-ish fairness via list order) *)
      let row = Ts_base.Intmath.modulo c ii in
      match
        List.find_opt
          (fun w ->
            match S.time s w with
            | Some tw -> Ts_base.Intmath.modulo tw ii = row
            | None -> false)
          (S.scheduled_nodes s)
      with
      | Some w -> S.unplace s w
      | None -> guard := n (* conflict from a wrapped busy unit elsewhere *)
    done;
    S.fits s v ~cycle:c
  in
  let ok = ref true in
  let continue_ = ref true in
  while !continue_ && !ok do
    match pick_unscheduled () with
    | None -> continue_ := false
    | Some v ->
        if !budget <= 0 then ok := false
        else begin
          decr budget;
          incr placements;
          let e0 = early v in
          (* normal scan: the first admissible, resource-free slot *)
          let rec scan c =
            if c > e0 + ii - 1 then None
            else if S.fits s v ~cycle:c && admissible s v ~cycle:c then Some c
            else scan (c + 1)
          in
          match scan e0 with
          | Some c ->
              S.place s v ~cycle:c;
              prev_time.(v) <- c;
              evict_broken_succs v c
          | None ->
              (* forced placement: at least one cycle past any previous
                 attempt, evicting whatever occupies it *)
              let base = max e0 (prev_time.(v) + 1) in
              let rec force c =
                if c > base + ii - 1 then false
                else if admissible s v ~cycle:c && force_fit v c then begin
                  S.place s v ~cycle:c;
                  prev_time.(v) <- c;
                  evict_broken_succs v c;
                  true
                end
                else force (c + 1)
              in
              if not (force base) then ok := false
        end
  done;
  if !ok && S.is_complete s then (Some (Ts_modsched.Kernel.of_schedule s), !placements)
  else (None, !placements)

let try_ii ?budget_ratio ?admissible ?asap ?prio g ~ii =
  fst (try_ii_counting ?budget_ratio ?admissible ?asap ?prio g ~ii)

let schedule ?budget_ratio g =
  let mii = Ts_ddg.Mii.mii g in
  let max_ii = Ts_ddg.Mii.ii_upper_bound g in
  let placements = ref 0 in
  let rec go ii attempts =
    if ii > max_ii then
      raise
        (No_schedule
           (Printf.sprintf "IMS: no schedule for %s with II in [%d, %d]" g.name
              mii max_ii))
    else
      match try_ii_counting ?budget_ratio g ~ii with
      | Some kernel, p ->
          placements := !placements + p;
          { kernel; mii; attempts; placements = !placements }
      | None, p ->
          placements := !placements + p;
          go (ii + 1) (attempts + 1)
  in
  go mii 1
