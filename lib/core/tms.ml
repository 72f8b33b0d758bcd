module K = Ts_modsched.Kernel
module S = Ts_modsched.Sched
module Trace = Ts_obs.Trace
module Metrics = Ts_obs.Metrics

(* Search counters on the default registry (dumped by [tsms --metrics]).
   Handles are atomic cells, so the hot-path cost is one fetch-and-add and
   totals are exact under the Parallel domain pool. *)
let m_attempts = Metrics.counter Metrics.default "tms.attempts"
let m_fallbacks = Metrics.counter Metrics.default "tms.fallbacks"
let m_schedules = Metrics.counter Metrics.default "tms.schedules"

let m_slot_resource =
  Metrics.counter Metrics.default "tms.slots.resource_reject"

let m_slot_c1 = Metrics.counter Metrics.default "tms.slots.c1_reject"
let m_slot_c2 = Metrics.counter Metrics.default "tms.slots.c2_reject"
let m_slot_admitted = Metrics.counter Metrics.default "tms.slots.admitted"

(* Latency distribution of one grid-point attempt (order repair or the
   IMS post-check included): the unit of work the search repeats
   thousands of times, so its p50/p90/p99 is what tells a slow search
   from a wide one. *)
let m_attempt_ms = Metrics.histogram Metrics.default "tms.attempt_ms"

type result = {
  kernel : K.t;
  mii : int;
  c_delay_threshold : int;
  achieved_c_delay : int;
  p_max : float;
  misspec : float;
  f_min : float;
  attempts : int;
  fell_back : bool;
}

let default_p_max = 0.05

(* §7.9(a) fix: the pure F_min++ walk stopped at the first feasible grid
   point, and on the synthetic suites that point sits at a high II with a
   small C_delay — the low-II/moderate-C_delay points the paper's TMS
   lands on exist, but the greedy swing placement misses them, so IIs ran
   40-60% above MII. Two repairs close the gap:

   - [default_f_slack]: after the first feasible point at [F0], keep
     walking objective groups up to [F0 + slack] and return the feasible
     point with the lowest II (the deepest pipelining). One-and-a-half
     cycles per iteration is below the cost model's resolution against
     the simulator (~6% MAE, Section 5), so the trade buys the paper's
     "add stages rather than raise II" preference at negligible modeled
     cost.
   - [default_place_retries]: when the swing order dead-ends at a grid
     point, hoist the blocking node to the front of the order and retry
     the placement, a bounded number of times. This keeps the inner
     solver in the SMS family (TMS stays an overlay on SMS, so it cannot
     systematically out-schedule the SMS baseline) while recovering most
     of the low-II points a single greedy pass rejects. *)
let default_f_slack = 1.5
let default_place_retries = 3

type slot_verdict = Admit | Reject_resource | Reject_c1 | Reject_c2

(* The helpers of [admit] below are top-level functions with explicit
   arguments: local closures over the slot's state would each be a heap
   allocation per slot check. *)

(* Issue cycle of [u] under the hypothesis "v issues at [cycle]"; only
   valid for [v] and placed nodes. *)
let time_hyp s ~v ~cycle u =
  if u = v then cycle
  else match S.time s u with Some t -> t | None -> assert false

(* Inter-iteration status of partition edge [i] under the hypothesis:
   edges not touching [v] keep their incrementally-maintained flag. *)
let hyp_active s ~v ~cycle mask i (e : Ts_ddg.Ddg.edge) =
  if e.src <> v && e.dst <> v then mask.(i)
  else
    (e.src = v || S.is_scheduled s e.src)
    && (e.dst = v || S.is_scheduled s e.dst)
    &&
    let ii = S.ii s in
    e.distance
    + Ts_base.Intmath.div_floor (time_hyp s ~v ~cycle e.dst) ii
    - Ts_base.Intmath.div_floor (time_hyp s ~v ~cycle e.src) ii
    >= 1

(* Definition 2 for an active register dependence. *)
let sync_hyp s ~v ~cycle ~c_reg_com (e : Ts_ddg.Ddg.edge) =
  let ii = S.ii s in
  Ts_base.Intmath.modulo (time_hyp s ~v ~cycle e.src) ii
  - Ts_base.Intmath.modulo (time_hyp s ~v ~cycle e.dst) ii
  + Ts_ddg.Ddg.latency (S.ddg s) e.src + c_reg_com

(* A speculated dependence is preserved when some synchronised register
   dependence already orders the store before the load strongly enough
   (Section 4.2). *)
let preserved s ~v ~cycle ~c_reg_com (e : Ts_ddg.Ddg.edge) =
  let ii = S.ii s in
  let ts = time_hyp s ~v ~cycle e.src and td = time_hyp s ~v ~cycle e.dst in
  let dk =
    e.distance + Ts_base.Intmath.div_floor td ii - Ts_base.Intmath.div_floor ts ii
  in
  let need =
    float_of_int
      (Ts_base.Intmath.modulo ts ii + Ts_ddg.Ddg.latency (S.ddg s) e.src
      - Ts_base.Intmath.modulo td ii)
    /. float_of_int dk
  in
  let reg_arr = Ts_ddg.Ddg.reg_edge_array (S.ddg s) in
  let reg_mask = S.reg_active_mask s in
  let found = ref false and i = ref 0 in
  while (not !found) && !i < Array.length reg_arr do
    let r = reg_arr.(!i) in
    if
      hyp_active s ~v ~cycle reg_mask !i r
      && Ts_base.Intmath.modulo (time_hyp s ~v ~cycle r.src) ii
         < Ts_base.Intmath.modulo ts ii
      && float_of_int (sync_hyp s ~v ~cycle ~c_reg_com r) >= need
    then found := true;
    incr i
  done;
  !found

(* C1 (Definition 2: [sync <= C_delay] on every new synchronised register
   dependence) as bounds on the row of [v]'s cycle [c] in one stage. For
   a register edge between [v] and [u] placed at [t_u], distance [d]:
   - [v -> u] is synchronised iff [stage c <= d + stage t_u - 1], and
     then breaks C1 iff [row c > C_delay + row t_u - lat_v - c_reg_com];
   - [u -> v] is synchronised iff [stage c >= stage t_u + 1 - d], and
     then breaks C1 iff [row c < row t_u + lat_u + c_reg_com - C_delay];
   - a self-loop with [d >= 1] has [sync = lat_v + c_reg_com] at every c.
   So C1 admits the rows [lo .. hi] of the stage (none when [lo > hi]). *)
type rows = { mutable lo : int; mutable hi : int }

let c1_rows rows s v ~stage ~c_delay ~c_reg_com =
  let g = S.ddg s and ii = S.ii s in
  let reg_arr = Ts_ddg.Ddg.reg_edge_array g and lat_v = Ts_ddg.Ddg.latency g v in
  let idxs = Ts_ddg.Ddg.incident_reg g v in
  rows.lo <- 0;
  rows.hi <- ii - 1;
  for k = 0 to Array.length idxs - 1 do
    let e = reg_arr.(idxs.(k)) in
    let u = if e.src = v then e.dst else e.src in
    match S.time s u with
    | _ when u = v ->
        if e.distance >= 1 && lat_v + c_reg_com > c_delay then rows.hi <- -1
    | None -> ()
    | Some tu ->
        let q = Ts_base.Intmath.div_floor tu ii in
        if e.src = v && stage < e.distance + q then
          rows.hi <- Int.min rows.hi (c_delay + tu - (q * ii) - lat_v - c_reg_com)
        else if e.dst = v && stage > q - e.distance then
          rows.lo <-
            Int.max rows.lo
              (tu - (q * ii) + Ts_ddg.Ddg.latency g u + c_reg_com - c_delay)
  done

(* ISSUE_SLOT_SELECTION (Figure 3, lines 18-28) for node [v] at cycle [c]
   once C1 holds: resource fit, then C2 on the misspeculation frequency
   when new memory dependences appear.

   The inter-iteration dependence set of the partial schedule is NOT
   recomputed here: [Sched] maintains per-edge activity masks
   incrementally as nodes are placed/evicted, and this predicate only
   overlays the hypothesis "v issues at [cycle]" on the edges incident to
   [v] (found through the DDG's kind-partitioned incident indexes). All
   scans are loops over preallocated arrays, so a slot that C2 does not
   reach allocates nothing. Rows/stages are computed from raw issue
   cycles; the kernel normalises by a multiple of II, so these values
   equal the final kernel's. *)
let admit_past_c1 ?c2obs s v ~cycle ~p_max ~c_reg_com =
  if not (S.fits s v ~cycle) then Reject_resource
  else begin
    let g = S.ddg s in
    let mem_arr = Ts_ddg.Ddg.mem_edge_array g in
    let mem_mask = S.mem_active_mask s in
    let new_mem = ref false and k = ref 0 in
    let idxs = Ts_ddg.Ddg.incident_mem g v in
    while (not !new_mem) && !k < Array.length idxs do
      let i = idxs.(!k) in
      if hyp_active s ~v ~cycle mem_mask i mem_arr.(i) then new_mem := true;
      incr k
    done;
    if not !new_mem then Admit
    else begin
      (* P_M over the non-preserved speculated dependences, multiplied in
         edge order (bit-identical to the list-based seed computation). *)
      let acc = ref 1.0 in
      for i = 0 to Array.length mem_arr - 1 do
        let e = mem_arr.(i) in
        if
          hyp_active s ~v ~cycle mem_mask i e
          && not (preserved s ~v ~cycle ~c_reg_com e)
        then acc := !acc *. (1.0 -. e.Ts_ddg.Ddg.prob)
      done;
      let freq = 1.0 -. !acc in
      let ok = freq <= p_max +. 1e-12 in
      (match c2obs with Some f -> f freq ok | None -> ());
      if ok then Admit else Reject_c2
    end
  end

(* The whole predicate, C1 first, as the placement scan applies it. *)
let admit ?c2obs s v ~cycle ~c_delay ~p_max ~c_reg_com =
  let ii = S.ii s and rows = { lo = 0; hi = -1 } in
  let stage = Ts_base.Intmath.div_floor cycle ii in
  c1_rows rows s v ~stage ~c_delay ~c_reg_com;
  let row = cycle - (stage * ii) in
  if row < rows.lo || row > rows.hi then Reject_c1
  else admit_past_c1 ?c2obs s v ~cycle ~p_max ~c_reg_com

let admissible s v ~cycle ~c_delay ~p_max ~c_reg_com =
  admit s v ~cycle ~c_delay ~p_max ~c_reg_com = Admit

type reject = {
  node : int;
  window_empty : bool;
  resource_rejects : int;
  c1_rejects : int;
  c2_rejects : int;
}

let reject_reason r =
  if r.window_empty then "window-empty"
  else
    match (r.resource_rejects > 0, r.c1_rejects > 0, r.c2_rejects > 0) with
    | true, false, false -> "resource-exhausted"
    | false, true, false -> "c1-exhausted"
    | false, false, true -> "c2-exhausted"
    | _ -> "mixed-exhausted"

(* Slot-verdict counters are accumulated in a local tally and flushed to
   the shared metrics once per attempt: a fetch_and_add per slot check
   would ping-pong the counters' cache lines across the domains of a
   sweep's parallel P_max searches. *)
type slot_tally = {
  mutable t_resource : int;
  mutable t_c1 : int;
  mutable t_c2 : int;
  mutable t_admit : int;
}

let new_tally () = { t_resource = 0; t_c1 = 0; t_c2 = 0; t_admit = 0 }

let flush_tally t =
  Metrics.incr ~by:t.t_resource m_slot_resource;
  Metrics.incr ~by:t.t_c1 m_slot_c1;
  Metrics.incr ~by:t.t_c2 m_slot_c2;
  Metrics.incr ~by:t.t_admit m_slot_admitted

let try_schedule_tallied tally ?c2obs ?asap g ~order ~ii ~c_delay ~p_max
    ~c_reg_com =
  let s = S.create ?asap g ~ii and rows = { lo = 0; hi = -1 } in
  let rec place_all = function
    | [] -> Ok (K.of_schedule s)
    | (v, prefer) :: rest -> (
        match S.window ~prefer s v with
        | None ->
            Error
              { node = v; window_empty = true; resource_rejects = 0;
                c1_rejects = 0; c2_rejects = 0 }
        | Some (lo, hi, dir) ->
            (* Walk the window in trial order, one stage at a time (it is
               at most II wide: two stages at most), checking resources
               and C2 only on the cycles C1 admits. Every cycle passed is
               one verdict: those C1 skipped are its rejections. *)
            let up = dir = S.Up and step = if dir = S.Up then 1 else -1 in
            let q_lo = Ts_base.Intmath.div_floor lo ii
            and q_hi = Ts_base.Intmath.div_floor hi ii in
            let q = ref (if up then q_lo else q_hi) and c = ref lo in
            let placed = ref false and resource = ref 0 and c2 = ref 0 in
            while (not !placed) && q_lo <= !q && !q <= q_hi do
              let base = !q * ii in
              c1_rows rows s v ~stage:!q ~c_delay ~c_reg_com;
              let ca = Int.max (Int.max lo base) (base + rows.lo)
              and cb = Int.min (Int.min hi (base + ii - 1)) (base + rows.hi) in
              c := if up then ca else cb;
              while (not !placed) && ca <= !c && !c <= cb do
                (match admit_past_c1 ?c2obs s v ~cycle:!c ~p_max ~c_reg_com with
                | Admit ->
                    tally.t_admit <- tally.t_admit + 1;
                    S.place s v ~cycle:!c;
                    placed := true
                | Reject_resource -> incr resource
                | Reject_c2 -> incr c2
                | Reject_c1 -> assert false);
                if not !placed then c := !c + step
              done;
              q := !q + step
            done;
            let passed =
              if !placed then abs (!c - if up then lo else hi) else hi - lo + 1
            in
            let c1 = passed - !resource - !c2 in
            tally.t_resource <- tally.t_resource + !resource;
            tally.t_c1 <- tally.t_c1 + c1;
            tally.t_c2 <- tally.t_c2 + !c2;
            if !placed then place_all rest
            else
              Error
                { node = v; window_empty = false; resource_rejects = !resource;
                  c1_rejects = c1; c2_rejects = !c2 })
  in
  place_all order

let try_schedule_explained ?asap g ~order ~ii ~c_delay ~p_max ~c_reg_com =
  let tally = new_tally () in
  let r = try_schedule_tallied tally ?asap g ~order ~ii ~c_delay ~p_max ~c_reg_com in
  flush_tally tally;
  r

let try_schedule ?asap g ~order ~ii ~c_delay ~p_max ~c_reg_com =
  match try_schedule_explained ?asap g ~order ~ii ~c_delay ~p_max ~c_reg_com with
  | Ok k -> Some k
  | Error _ -> None

let finish ~params ~p_max ~mii ~attempts ~fell_back ~c_delay_threshold ~f_min kernel =
  let c_reg_com = params.Ts_isa.Spmt_params.c_reg_com in
  {
    kernel;
    mii;
    c_delay_threshold;
    achieved_c_delay = K.c_delay kernel ~c_reg_com;
    p_max;
    misspec = Overheads.misspec_prob kernel ~c_reg_com;
    f_min;
    attempts;
    fell_back;
  }

(* One "tms.attempt" trace event per (II, C_delay) point tried, with the
   objective value, the accept/reject outcome and the reject reason
   (window-empty vs resource/C1/C2 slot exhaustion); searches are
   logical-time (Trace.tick), not cycle-time. *)
let attempt_event trace ~base ~ii ~c_delay ~f ~reason accepted =
  if Trace.enabled trace then
    Trace.instant trace ~ts:(Trace.tick trace) "tms.attempt"
      ~args:
        [
          ("base", Ts_obs.Json.Str base);
          ("ii", Ts_obs.Json.Int ii);
          ("c_delay", Ts_obs.Json.Int c_delay);
          ("f", Ts_obs.Json.Float f);
          ("accepted", Ts_obs.Json.Bool accepted);
          ("reason", Ts_obs.Json.Str reason);
        ]

let result_event trace (r : result) =
  if Trace.enabled trace then
    Trace.instant trace ~ts:(Trace.tick trace) "tms.result"
      ~args:
        [
          ("ii", Ts_obs.Json.Int r.kernel.K.ii);
          ("c_delay", Ts_obs.Json.Int r.achieved_c_delay);
          ("c_delay_threshold", Ts_obs.Json.Int r.c_delay_threshold);
          ("p_max", Ts_obs.Json.Float r.p_max);
          ("p_m", Ts_obs.Json.Float r.misspec);
          ("f_min", Ts_obs.Json.Float r.f_min);
          ("attempts", Ts_obs.Json.Int r.attempts);
          ("fell_back", Ts_obs.Json.Bool r.fell_back);
        ]

(* The per-loop half of a search: everything that depends on the loop,
   the machine and the placement but not on [P_max] or on the base
   scheduler. A sweep builds it once and hands it to each of its
   searches. *)
type prepared = {
  params : Ts_isa.Spmt_params.t;  (* effective under the placement *)
  mii : int;
  ii_max : int;
  cd_floor : int;
  cd_max : int;
}

(* The C1 analogue of RecMII. Around a register recurrence with total
   latency L and total distance D, the edges' slacks
   s_e = t_dst - t_src - lat_src + II * distance sum to II * D - L, and
   sync_e = c_reg_com + II * d_ker - s_e. Each of the m <= D edges with
   d_ker >= 1 is synchronised, so sync_e <= C_delay gives
   s_e >= II * d_ker + c_reg_com - C_delay; the other edges have
   s_e >= 0. Summing over the cycle, m * (C_delay - c_reg_com) >= L, so
   C_delay >= c_reg_com + ceil (L / D) at every II. *)
let c_delay_floor ~c_reg_com g =
  match Ts_ddg.Mii.reg_rec_ii g with 0 -> 0 | r -> c_reg_com + r

let prepare ~placement ~params ~mii g =
  (* Definition 2 under the placement: the search prices the worst
     distance-1 hop cost and target-core speed of the compiled map
     ([effective_params] is the identity for round-robin). *)
  let params = Ts_isa.Placement.effective_params placement params in
  (* II rarely exceeds the longest dependence path (Section 4.3); cap the
     search grid there and rely on the fallback for the pathological
     remainder. *)
  let ii_max =
    min (Ts_ddg.Mii.ii_upper_bound g) (max (Ts_ddg.Mii.ldp g) mii + 8)
  in
  let max_lat =
    Array.fold_left (fun acc (nd : Ts_ddg.Ddg.node) -> max acc nd.latency) 1 g.nodes
  in
  let c_reg_com = params.Ts_isa.Spmt_params.c_reg_com in
  { params; mii; ii_max; cd_floor = c_delay_floor ~c_reg_com g;
    cd_max = ii_max - 1 + max_lat + c_reg_com }

(* The Figure 3 outer search at [p_max], whichever base scheduler places
   the instructions: [attempt] tries one grid point, [fallback]
   schedules the loop when the grid is exhausted, and [base] names the
   scheduler in trace events.

   F-plateau walk: scan objective groups in ascending F, from the
   C_delay floor up.  After the first feasible point fixes F0, keep
   scanning until F exceeds F0 + default_f_slack, tie-breaking toward
   the lowest II seen so far (points at or above the incumbent II are
   skipped, and within a group the first success is the lowest-F
   placement for that II). *)
let search ~trace ~base ~p_max prep g ~attempt ~fallback =
  let { params; mii; ii_max; cd_floor; cd_max } = prep in
  if Trace.enabled trace then
    Trace.begin_span trace ~ts:(Trace.tick trace) "tms.search"
      ~args:
        [
          ("loop", Ts_obs.Json.Str g.Ts_ddg.Ddg.name);
          ("p_max", Ts_obs.Json.Float p_max);
          ("mii", Ts_obs.Json.Int mii);
          ("ii_max", Ts_obs.Json.Int ii_max);
          ("c_delay_floor", Ts_obs.Json.Int cd_floor);
        ];
  let attempts = ref 0 in
  let f0 = ref None in
  let best = ref None in
  let try_point f (ii, cd) =
    let worth =
      match !best with None -> true | Some (bii, _, _, _) -> ii < bii
    in
    if worth then begin
      incr attempts;
      Metrics.incr m_attempts;
      let t0 = Unix.gettimeofday () in
      let outcome = attempt ~ii ~c_delay:cd in
      Metrics.observe m_attempt_ms ((Unix.gettimeofday () -. t0) *. 1000.0);
      match outcome with
      | Ok kernel ->
          attempt_event trace ~base ~ii ~c_delay:cd ~f ~reason:"scheduled" true;
          if !f0 = None then f0 := Some f;
          best := Some (ii, cd, f, kernel)
      | Error reason -> attempt_event trace ~base ~ii ~c_delay:cd ~f ~reason false
    end
  in
  let rec walk groups =
    match groups () with
    | Seq.Nil -> ()
    | Seq.Cons ((f, points), rest) ->
        let past_plateau =
          match !f0 with
          | Some f0v -> f > f0v +. default_f_slack +. 1e-9
          | None -> false
        in
        if not past_plateau then begin
          List.iter (try_point f) points;
          walk rest
        end
  in
  let cd_min = max (1 + params.Ts_isa.Spmt_params.c_reg_com) cd_floor in
  walk (Cost_model.f_frontier params ~mii ~ii_max ~cd_min ~cd_max);
  let r =
    match !best with
    | Some (_, cd, f, kernel) ->
        finish ~params ~p_max ~mii ~attempts:!attempts ~fell_back:false
          ~c_delay_threshold:cd ~f_min:f kernel
    | None ->
        (* Grid exhausted: degenerate to the base scheduler. *)
        Metrics.incr m_fallbacks;
        if Trace.enabled trace then
          Trace.instant trace ~ts:(Trace.tick trace) "tms.fallback"
            ~args:[ ("base", Ts_obs.Json.Str base) ];
        let kernel = fallback g in
        let c_reg_com = params.Ts_isa.Spmt_params.c_reg_com in
        let f_min =
          Cost_model.f_value params ~ii:kernel.K.ii
            ~c_delay:(max 1 (K.c_delay kernel ~c_reg_com))
        in
        finish ~params ~p_max ~mii ~attempts:!attempts ~fell_back:true
          ~c_delay_threshold:cd_max ~f_min kernel
  in
  Metrics.incr m_schedules;
  result_event trace r;
  if Trace.enabled trace then
    Trace.end_span trace ~ts:(Trace.tick trace) "tms.search";
  r

(* TMS over SMS at [p_max]: each grid point places the swing [order]
   with bounded order repair. Returns the result and the smallest
   frequency a C2 comparison rejected on any point the walk consumed
   ([infinity] when C2 never rejected): the search's walk is then the
   walk at every P_max below that floor (see [schedule_sweep]). *)
let search_sms ~trace ~p_max prep ~order ~fallback g =
  let c_reg_com = prep.params.Ts_isa.Spmt_params.c_reg_com in
  (* The grid revisits each II once per objective group: compute the ASAP
     table (a Bellman-Ford relaxation) once per II, not per grid point. *)
  let asap_cache = Hashtbl.create 8 in
  let asap_for ii =
    match Hashtbl.find_opt asap_cache ii with
    | Some a -> a
    | None ->
        let a = S.asap_table g ~ii in
        Hashtbl.add asap_cache ii a;
        a
  in
  let c2_floor = ref infinity in
  let c2obs freq ok = if (not ok) && freq < !c2_floor then c2_floor := freq in
  (* Bounded order repair: when the swing order dead-ends, hoist the
     blocking node to the front (so it gets first pick of the window) and
     re-run the placement from scratch.  Each grid point restarts from
     the pristine swing order. *)
  let attempt ~ii ~c_delay =
    let tally = new_tally () in
    let rec go order k =
      match
        try_schedule_tallied tally ~c2obs ~asap:(asap_for ii) g ~order ~ii
          ~c_delay ~p_max ~c_reg_com
      with
      | Error rej when k < default_place_retries ->
          let v = rej.node in
          let entry = List.find (fun (u, _) -> u = v) order in
          let rest = List.filter (fun (u, _) -> u <> v) order in
          go (entry :: rest) (k + 1)
      | res -> res
    in
    let res = go order 0 in
    flush_tally tally;
    Result.map_error reject_reason res
  in
  let r = search ~trace ~base:"sms" ~p_max prep g ~attempt ~fallback in
  (r, !c2_floor)

(* The per-loop setup over SMS: the swing analysis gives the MII and the
   order, and the SMS kernel is the fallback (placed here only if the
   caller holds no SMS result). The analysis is forced here, on the
   calling domain, before any search goes to the pool. *)
let setup ?sms ~placement ~params g =
  let swing, fallback =
    match sms with
    | Some ((r : Ts_sms.Sms.result), swing) -> (swing, fun _ -> r.kernel)
    | None ->
        let swing = lazy (Ts_sms.Sms.swing g) in
        (swing, fun g -> (Ts_sms.Sms.schedule ~swing g).kernel)
  in
  let { Ts_sms.Sms.mii; order } = Lazy.force swing in
  (prepare ~placement ~params ~mii g, order, fallback)

let schedule ?(trace = Trace.null) ?(p_max = default_p_max)
    ?(placement = Ts_isa.Placement.Round_robin) ?sms ~params g =
  Ts_obs.Prof.span "tms.search" @@ fun () ->
  let prep, order, fallback = setup ?sms ~placement ~params g in
  fst (search_sms ~trace ~p_max prep ~order ~fallback g)

let schedule_sweep ?(trace = Trace.null) ?(p_maxes = [ 0.01; 0.05; 0.25 ])
    ?(placement = Ts_isa.Placement.Round_robin) ?sms ~params g =
  if p_maxes = [] then invalid_arg "Tms.schedule_sweep: empty p_max list";
  let p_lo = List.fold_left Float.min infinity p_maxes in
  let p_hi = List.fold_left Float.max neg_infinity p_maxes in
  (* The setup is charged to the first search's span, so the profile
     still counts one "tms.search" per search. *)
  let prep, order, fallback, (r_lo, c2_floor) =
    Ts_obs.Prof.span "tms.search" @@ fun () ->
    let prep, order, fallback = setup ?sms ~placement ~params g in
    (prep, order, fallback, search_sms ~trace ~p_max:p_lo prep ~order ~fallback g)
  in
  let n = 1000 in
  let cost (r : result) =
    Cost_model.estimate prep.params ~ii:r.kernel.K.ii
      ~c_delay:r.achieved_c_delay ~p_m:r.misspec ~n
  in
  let best, searches =
    if c2_floor > p_hi +. 1e-12 then
      (* C2 cannot bind: every point the walk at [p_lo] consumed keeps
         each of its C2 verdicts at every swept value (admitted
         frequencies are <= p_lo, rejected ones > p_hi), so every other
         search would repeat this walk and return this kernel at the same
         cost. The fold below keeps the first of equal costs: the result
         labelled with the list's first value. *)
      ({ r_lo with p_max = List.hd p_maxes }, 1)
    else begin
      let run p_max =
        if p_max = p_lo then r_lo
        else
          Ts_obs.Prof.span "tms.search" @@ fun () ->
          fst (search_sms ~trace ~p_max prep ~order ~fallback g)
      in
      (* One worker domain per P_max. An enabled tracer is a single shared
         sink, so traced sweeps stay sequential (and their event order
         deterministic); results are identical either way. *)
      let results =
        if Trace.enabled trace then List.map run p_maxes
        else Ts_base.Parallel.map run p_maxes
      in
      let r0 = List.hd results in
      ( List.fold_left
          (fun best r -> if cost r < cost best then r else best)
          r0 (List.tl results),
        1 + List.length (List.filter (fun p -> p <> p_lo) p_maxes) )
    end
  in
  if Trace.enabled trace then
    Trace.instant trace ~ts:(Trace.tick trace) "tms.sweep.pick"
      ~args:
        [
          ("p_max", Ts_obs.Json.Float best.p_max);
          ("estimate", Ts_obs.Json.Float (cost best));
          ("searches", Ts_obs.Json.Int searches);
        ];
  best
