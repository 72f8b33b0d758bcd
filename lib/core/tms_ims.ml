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

let schedule ?(placement = Ts_isa.Placement.Round_robin) ?ims ~params g =
  Ts_obs.Prof.span "tms_ims.search" @@ fun () ->
  (* IMS gives the MII and, if the grid is exhausted, the kernel. *)
  let ims = match ims with Some r -> r | None -> Ts_sms.Ims.schedule g in
  let prep = Tms.prepare ~placement ~params ~mii:ims.mii g in
  let c_reg_com = prep.Tms.params.Ts_isa.Spmt_params.c_reg_com in
  let p_max = Tms.default_p_max in
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
  (* One grid-point attempt: an IMS pass under the TMS admissibility
     predicate (C1 and C2; IMS tests resources itself and its forced
     placement evicts to make room), then a post-check.  Every placement
     passed [admissible], but IMS eviction can retract decisions those
     checks relied on: unscheduling the register dependence that
     preserved a speculative memory dependence un-preserves it behind
     C2's back (and moving a producer can likewise raise an
     already-checked sync past C_delay).
     Re-derive both claims on the finished kernel and reject the grid
     point if eviction broke them.  IMS reports no blocking node, so
     there is no order repair: the plateau walk alone recovers the
     deeper-pipelining points. *)
  let attempt ~ii ~c_delay =
    let admissible s v ~cycle =
      Tms.admissible s v ~cycle ~c_delay ~p_max ~c_reg_com
    in
    let asap, prio = cached ii in
    match Ts_sms.Ims.try_ii ~admissible ~asap ~prio g ~ii with
    | Some kernel
      when K.c_delay kernel ~c_reg_com <= c_delay
           && Overheads.misspec_prob kernel ~c_reg_com <= p_max +. 1e-12 ->
        Ok kernel
    | Some _ | None -> Error "placement-failed"
  in
  Tms.search ~trace:Ts_obs.Trace.null ~base:"ims" ~p_max prep g ~attempt
    ~fallback:(fun _ -> ims.kernel)
