module K = Ts_modsched.Kernel

let table1 () =
  Format.asprintf "Table 1: architecture simulated@.%a@." Ts_spmt.Config.pp
    Ts_spmt.Config.default

let fig2 () =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let g = Ts_workload.Motivating.ddg () in
  let cfg = Ts_spmt.Config.two_core in
  let params = cfg.Ts_spmt.Config.params in
  let c_reg_com = params.Ts_isa.Spmt_params.c_reg_com in
  pr "Figures 1-2: the motivating example on a two-core SpMT machine\n\n";
  pr "ResII = %d, RecII = %d, MII = %d (paper: 4, 8, 8)\n\n"
    (Ts_ddg.Mii.res_ii g) (Ts_ddg.Mii.rec_ii g) (Ts_ddg.Mii.mii g);
  let with_swing = Cached.sms g in
  let sms = (fst with_swing).Ts_sms.Sms.kernel in
  pr "%s\n" (Format.asprintf "SMS %a" K.pp sms);
  pr "SMS: II=%d, C_delay=%d (paper: 11), MaxLive=%d\n\n" sms.K.ii
    (K.c_delay sms ~c_reg_com) (K.max_live sms);
  let tms = Cached.tms_sweep ~sms:with_swing ~params g in
  let tk = tms.Ts_tms.Tms.kernel in
  pr "%s\n" (Format.asprintf "TMS %a" K.pp tk);
  pr "TMS: II=%d, C_delay=%d (paper: 1 + C_reg_com + slack), P_M=%.4f\n\n" tk.K.ii
    tms.Ts_tms.Tms.achieved_c_delay tms.Ts_tms.Tms.misspec;
  let trip = 2000 in
  let s1 = Cached.sim cfg sms ~trip in
  let s2 = Cached.sim cfg tk ~trip in
  pr "two-core simulation over %d iterations:\n" trip;
  pr "  SMS: %d cycles (%.2f/iter), %d sync-stall cycles, %d squashes\n"
    s1.Ts_spmt.Sim.cycles
    (float_of_int s1.Ts_spmt.Sim.cycles /. float_of_int trip)
    s1.Ts_spmt.Sim.sync_stall_cycles s1.Ts_spmt.Sim.squashes;
  pr "  TMS: %d cycles (%.2f/iter), %d sync-stall cycles, %d squashes\n"
    s2.Ts_spmt.Sim.cycles
    (float_of_int s2.Ts_spmt.Sim.cycles /. float_of_int trip)
    s2.Ts_spmt.Sim.sync_stall_cycles s2.Ts_spmt.Sim.squashes;
  pr "  TMS-over-SMS speedup: %.1f%%\n"
    (Ts_base.Stats.speedup_percent
       ~baseline:(float_of_int s1.Ts_spmt.Sim.cycles)
       ~improved:(float_of_int s2.Ts_spmt.Sim.cycles));
  Buffer.contents buf

let cfg = Ts_spmt.Config.default

let all_names =
  [
    "table1"; "fig2"; "table2"; "fig4"; "table3"; "fig5"; "fig6"; "ablation";
    "unroll"; "schedulers"; "scaling"; "hetero";
  ]

let run ?limit ~names print =
  let names = if List.mem "all" names then all_names else names in
  (match List.find_opt (fun n -> not (List.mem n all_names)) names with
  | Some n -> invalid_arg (Printf.sprintf "Experiments.run: unknown experiment %S" n)
  | None -> ());
  (* The two shared passes, built on first use and dropped with the call. *)
  let suite = lazy (Suite.compute ?limit ~cfg ()) in
  let doacross = lazy (Doacross_runs.compute ~cfg) in
  List.iter
    (fun name ->
      let block =
        Ts_obs.Prof.span ("exp." ^ name) @@ fun () ->
        match name with
        | "table1" -> table1 ()
        | "fig2" -> fig2 ()
        | "table2" -> Table2.render (Table2.compute ~params:cfg.params (Lazy.force suite))
        | "fig4" -> Fig4.render (Fig4.compute (Lazy.force suite))
        | "table3" -> Table3.render (Table3.compute (Lazy.force doacross))
        | "fig5" -> Fig5.render (Fig5.compute (Lazy.force doacross))
        | "fig6" -> Fig6.render (Fig6.compute (Lazy.force doacross))
        | "ablation" -> Ablation.render (Ablation.compute ~cfg (Lazy.force doacross))
        | "unroll" -> Unrolling.render (Unrolling.compute ~cfg ())
        | "schedulers" -> Schedulers.render (Schedulers.compute ~cfg)
        | "scaling" -> Scaling.render (Scaling.compute ())
        | "hetero" -> Scaling.render_hetero (Scaling.compute_hetero ())
        | _ -> assert false
      in
      print block)
    names
