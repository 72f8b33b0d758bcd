module K = Ts_modsched.Kernel

type result = Tms.result = {
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

(* Same attempt-latency histogram as the swing-order search: an attempt
   is an attempt whichever placement engine ran it. *)
let m_attempt_ms =
  Ts_obs.Metrics.histogram Ts_obs.Metrics.default "tms.attempt_ms"

let schedule ?(trace = Ts_obs.Trace.null) ?(p_max = Tms.default_p_max) ?max_ii
    ?(placement = Ts_isa.Placement.Round_robin) ~params g =
  let params = Ts_isa.Placement.effective_params placement params in
  Ts_obs.Prof.span "tms_ims.search" @@ fun () ->
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
  (* Per-II caches: the grid revisits an II once per objective group, and
     both the ASAP relaxation and the priority sort depend only on
     (g, II). *)
  let per_ii = Hashtbl.create 8 in
  let cached ii =
    match Hashtbl.find_opt per_ii ii with
    | Some c -> c
    | None ->
        let c =
          (Ts_modsched.Sched.asap_table g ~ii, Ts_sms.Ims.priority_order g ~ii)
        in
        Hashtbl.add per_ii ii c;
        c
  in
  let attempts = ref 0 in
  let finish ~fell_back ~c_delay_threshold ~f_min kernel =
    {
      kernel;
      mii;
      c_delay_threshold;
      achieved_c_delay = K.c_delay kernel ~c_reg_com;
      p_max;
      misspec = Overheads.misspec_prob kernel ~c_reg_com;
      f_min;
      attempts = !attempts;
      fell_back;
    }
  in
  (* F-plateau walk with lowest-II tie-breaking, mirroring [Tms.schedule]
     (§7.9(a)).  IMS reports no blocking node, so there is no
     order-repair retry here — the plateau scan alone recovers the
     deeper-pipelining points. *)
  (* One grid-point attempt: an IMS pass under the TMS admissibility
     predicate, then a post-check.  Every placement passed [admissible],
     but IMS eviction can retract decisions those checks relied on:
     unscheduling the register dependence that preserved a speculative
     memory dependence un-preserves it behind C2's back (and moving a
     producer can likewise raise an already-checked sync past C_delay).
     Re-derive both claims on the finished kernel and reject the grid
     point if eviction broke them.  Pure given the shared read-only DDG
     and per-II caches, so points can be evaluated speculatively on the
     pool. *)
  let timed_point ~ii ~cd =
    let admissible s v ~cycle =
      Tms.admissible s v ~cycle ~c_delay:cd ~p_max ~c_reg_com
    in
    let asap, prio = cached ii in
    let at0 = Unix.gettimeofday () in
    let res = Ts_sms.Ims.try_ii ~admissible ~asap ~prio g ~ii in
    let dt = Unix.gettimeofday () -. at0 in
    let res =
      match res with
      | Some kernel
        when K.c_delay kernel ~c_reg_com <= cd
             && Overheads.misspec_prob kernel ~c_reg_com <= p_max +. 1e-12 ->
          Some kernel
      | Some _ | None -> None
    in
    (res, dt)
  in
  let par =
    (not (Ts_obs.Trace.enabled trace)) && Ts_base.Parallel.get_jobs () > 1
  in
  let spec_chunk = 2 * Ts_base.Parallel.get_jobs () in
  let rec take_drop k = function
    | [] -> ([], [])
    | l when k <= 0 -> ([], l)
    | x :: tl ->
        let a, b = take_drop (k - 1) tl in
        (x :: a, b)
  in
  let f0 = ref None in
  let best = ref None in
  let rec walk groups =
    match groups () with
    | Seq.Nil -> ()
    | Seq.Cons ((f, points), rest) ->
        let past_plateau =
          match !f0 with
          | Some f0v -> f > f0v +. Tms.default_f_slack +. 1e-9
          | None -> false
        in
        if not past_plateau then begin
          (* Speculative frontier, chunked as in [Tms.schedule]: evaluate
             each chunk's points still below the incumbent best II at
             chunk entry as pool tasks (a superset of the sequential
             walk's attempts within the chunk), then replay the walk in
             order, consuming outcomes only for points still worth
             attempting — counters and the chosen kernel stay
             bit-identical to [--jobs 1]. *)
          let replay pre (ii, cd) =
            let worth =
              match !best with
              | None -> true
              | Some (bii, _, _, _) -> ii < bii
            in
            if worth then begin
              incr attempts;
              let res, dt =
                match List.assoc_opt (ii, cd) pre with
                | Some v -> v
                | None -> timed_point ~ii ~cd
              in
              Ts_obs.Metrics.observe m_attempt_ms (dt *. 1000.0);
              Tms.attempt_event trace ~base:"ims" ~ii ~c_delay:cd ~f
                (res <> None);
              match res with
              | Some kernel ->
                  if !f0 = None then f0 := Some f;
                  best := Some (ii, cd, f, kernel)
              | None -> ()
            end
          in
          let rec chunked = function
            | [] -> ()
            | points ->
                let now, later = take_drop spec_chunk points in
                let entry_bii =
                  match !best with
                  | None -> max_int
                  | Some (bii, _, _, _) -> bii
                in
                let cands =
                  List.filter (fun (ii, _) -> ii < entry_bii) now
                in
                let pre =
                  if par && List.length cands >= 2 then begin
                    (* The per-II cache Hashtbl is single-domain: fill it
                       for the chunk's IIs before fanning out. *)
                    List.iter (fun (ii, _) -> ignore (cached ii)) cands;
                    Ts_base.Parallel.map
                      (fun (ii, cd) -> ((ii, cd), timed_point ~ii ~cd))
                      cands
                  end
                  else []
                in
                List.iter (replay pre) now;
                chunked later
          in
          chunked points;
          walk rest
        end
  in
  walk (Cost_model.f_frontier params ~mii ~ii_max ~cd_max);
  let r =
    match !best with
    | Some (_, cd, f, kernel) ->
        finish ~fell_back:false ~c_delay_threshold:cd ~f_min:f kernel
    | None ->
        (* grid exhausted: plain IMS fallback *)
        if Ts_obs.Trace.enabled trace then
          Ts_obs.Trace.instant trace ~ts:(Ts_obs.Trace.tick trace) "tms.fallback"
            ~args:[ ("base", Ts_obs.Json.Str "ims") ];
        let ims = Ts_sms.Ims.schedule g in
        let kernel = ims.Ts_sms.Ims.kernel in
        let f_min =
          Cost_model.f_value params ~ii:kernel.K.ii
            ~c_delay:(max 1 (K.c_delay kernel ~c_reg_com))
        in
        finish ~fell_back:true ~c_delay_threshold:cd_max ~f_min kernel
  in
  Tms.result_event trace r;
  r
